"""The Clock/Transport/Timer seam between protocol layers and backends.

Everything above this package — ``repro.core``, ``repro.overlay``,
``repro.runtime``, ``repro.scenarios``, ``repro.store`` — speaks only the
interfaces defined here.  Two backends implement them:

* :mod:`repro.sim` — the discrete-event simulator (deterministic, global
  event order, modelled latency/loss/partitions).  ``Simulator`` is the
  ``Clock``; ``Network`` subclasses the ``Transport`` base.
* :mod:`repro.live` — asyncio over real TCP/UNIX sockets with wall-clock
  time (``LiveTransport`` subclasses the same base); the simulator serves
  as its conformance oracle.

See DESIGN.md §13 for the contracts and the oracle methodology.
"""

from repro.transport.api import Cancellable, Clock, Transport
from repro.transport.endpoint import ProtocolEndpoint, unwrap_response
from repro.transport.errors import RPCError, TransportError
from repro.transport.message import Message, NetworkStats
from repro.transport.tasks import Process, Waiter, sleep
from repro.transport.timers import PeriodicTimer

__all__ = [
    "Cancellable", "Clock", "Message", "NetworkStats", "PeriodicTimer",
    "Process", "ProtocolEndpoint", "RPCError", "Transport", "TransportError",
    "Waiter", "sleep", "unwrap_response",
]
