"""Emulated applications on top of IDEA (paper Sections 3, 5 and 6).

Two applications drive the evaluation:

* :mod:`repro.apps.whiteboard` — a distributed white board: synchronous
  collaboration, every participant holds a local replica, users give hints
  or interact on demand.
* :mod:`repro.apps.booking` — an airline ticket booking system: asynchronous,
  booking servers replicate the sales record, consistency is maintained
  automatically and the business metrics are over-/under-selling.

Shared machinery (workload schedules live in :mod:`repro.workloads`):

* :mod:`repro.apps.users` — scripted user models (hint setting, complaints,
  on-demand resolution requests at scripted times).
"""

from repro.apps.users import ScriptedUser, UserAction
from repro.apps.whiteboard import WhiteboardApp, WhiteboardStroke
from repro.apps.booking import BookingApp, BookingOutcome, SaleRecord

__all__ = [
    "ScriptedUser",
    "UserAction",
    "WhiteboardApp",
    "WhiteboardStroke",
    "BookingApp",
    "BookingOutcome",
    "SaleRecord",
]
