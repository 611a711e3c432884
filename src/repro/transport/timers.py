"""Slotted periodic timers for recurring protocol rounds.

Background resolution, RanSub rounds, gossip sweeps and application-level
samplers all share the same shape: fire a callback every *period* seconds
until cancelled, where the period may change between rounds (frequency
adaptation) and cancellation must actually remove the pending event from the
clock's queue.

:class:`PeriodicTimer` packages that shape once.  It is slotted and reuses
its bound ``_tick`` method as the scheduled callback, so a deployment with
thousands of recurring rounds allocates no per-tick closures — only the
backing clock's own event/handle objects.

The timer needs exactly one primitive from its backend: ``clock.call_after``
returning a handle with ``cancel()``.  It therefore runs unchanged over the
discrete-event :class:`~repro.sim.engine.Simulator` and the wall-clock
:class:`~repro.live.clock.LiveClock` — it is the one
periodic timer both backends share.
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Optional

from repro.bounds import real
from repro.transport.errors import TransportError


class PeriodicTimer:
    """Run a callback every period until cancelled.

    The period is re-read before every round, either from the fixed
    ``period`` or from ``period_fn`` when given, so adaptive schedules (an
    :class:`~repro.core.adaptive.AutomaticController` changing its
    background-resolution frequency mid-run) take effect at the next round
    without rescheduling machinery in the caller.  A ``period_fn`` returning
    ``None`` stops the timer; one returning NaN or an infinity raises
    ``ValueError`` naming the timer's ``label``.

    :meth:`cancel` is the only way to halt a timer, and it is terminal: a
    subsequent :meth:`start` raises.  A timer does not follow its node's
    crashes; a round that must not run on a crashed node checks liveness
    itself.
    """

    __slots__ = ("clock", "callback", "label", "rounds_fired",
                 "_period", "_period_fn", "_event", "_cancelled")

    def __init__(self, clock, callback: Callable[[], None], *,
                 period: Optional[float] = None,
                 period_fn: Optional[Callable[[], Optional[float]]] = None,
                 label: str = "") -> None:
        if (period is None) == (period_fn is None):
            raise ValueError("exactly one of period / period_fn is required")
        if period is not None:
            real("period", period, gt=0)
        self.clock = clock
        self.callback = callback
        self.label = label
        self.rounds_fired = 0
        self._period = period
        self._period_fn = period_fn
        self._event: Optional[Any] = None
        self._cancelled = False

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "PeriodicTimer":
        """Schedule the next round one period from now."""
        if self._cancelled:
            raise TransportError("cannot restart a cancelled timer")
        if self._event is None:
            self._schedule_next()
        return self

    def cancel(self) -> None:
        """Terminally stop the timer and cancel the pending clock event."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def active(self) -> bool:
        """True while a next round is scheduled."""
        return self._event is not None and not self._cancelled

    # -------------------------------------------------------------- schedule
    def current_period(self) -> Optional[float]:
        return self._period if self._period_fn is None else self._period_fn()

    def _schedule_next(self) -> None:
        period = self.current_period()
        if period is None:
            self._event = None
            return
        if not period < inf:  # NaN is not < inf either
            raise ValueError(f"timer {self.label!r}: period {period!r} is "
                             f"not finite")
        # Tick events never escape this timer: the handle is dropped before
        # the callback runs (in _tick) or at cancel(), so a recycling clock
        # (the simulator) may reuse the event object through its free list.
        self._event = self.clock.call_after(max(period, 1e-9), self._tick,
                                            label=self.label, recyclable=True)

    def _tick(self) -> None:
        self._event = None
        if self._cancelled:
            return
        self.rounds_fired += 1
        self.callback()
        # The callback may have cancelled the timer; only a still-running
        # timer reschedules.
        if not self._cancelled:
            self._schedule_next()
