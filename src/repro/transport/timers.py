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

from typing import Any, Callable, Optional

from repro.transport.errors import TransportError


class PeriodicTimer:
    """Run a callback every period until cancelled.

    The period is re-read before every round, either from the fixed
    ``period`` or from ``period_fn`` when given, so adaptive schedules (an
    :class:`~repro.core.adaptive.AutomaticController` changing its
    background-resolution frequency mid-run) take effect at the next round
    without rescheduling machinery in the caller.  A ``period_fn`` returning
    ``None`` stops the timer.

    Two ways to halt a timer:

    * :meth:`cancel` is terminal — the timer can never run again (a
      subsequent :meth:`start` raises), matching "this schedule is gone".
    * :meth:`stop` is a restartable pause — the pending clock event is
      cancelled, but :meth:`start` resumes the schedule.  This is what a
      crash-stop endpoint uses so ``recover()`` can resume the node's
      protocol rounds.
    """

    __slots__ = ("clock", "callback", "label", "jitter", "rounds_fired",
                 "_period", "_period_fn", "_rng", "_event", "_cancelled",
                 "_stopped")

    def __init__(self, clock, callback: Callable[[], None], *,
                 period: Optional[float] = None,
                 period_fn: Optional[Callable[[], Optional[float]]] = None,
                 label: str = "", jitter: float = 0.0, rng=None) -> None:
        if (period is None) == (period_fn is None):
            raise ValueError("exactly one of period / period_fn is required")
        if period is not None and period <= 0:
            raise ValueError("period must be positive")
        if jitter > 0 and rng is None:
            raise ValueError("jitter requires an rng")
        self.clock = clock
        self.callback = callback
        self.label = label
        self.jitter = jitter
        self.rounds_fired = 0
        self._period = period
        self._period_fn = period_fn
        self._rng = rng
        self._event: Optional[Any] = None
        self._cancelled = False
        self._stopped = False

    # ------------------------------------------------------------- lifecycle
    def start(self) -> "PeriodicTimer":
        """Schedule the next round one period from now (resumes after stop)."""
        if self._cancelled:
            raise TransportError("cannot restart a cancelled timer")
        self._stopped = False
        if self._event is None:
            self._schedule_next()
        return self

    def cancel(self) -> None:
        """Terminally stop the timer and cancel the pending clock event."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def stop(self) -> None:
        """Pause the timer; :meth:`start` resumes it (unlike :meth:`cancel`)."""
        self._stopped = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def active(self) -> bool:
        """True while a next round is scheduled."""
        return self._event is not None and not self._cancelled

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def stopped(self) -> bool:
        """True while paused by :meth:`stop` (and not yet restarted)."""
        return self._stopped and not self._cancelled

    # -------------------------------------------------------------- schedule
    def current_period(self) -> Optional[float]:
        return self._period if self._period_fn is None else self._period_fn()

    def set_period(self, period: float) -> None:
        """Change a fixed period; takes effect from the next round."""
        if self._period_fn is not None:
            raise ValueError("timer period is provided by period_fn")
        if period <= 0:
            raise ValueError("period must be positive")
        self._period = period

    def _schedule_next(self) -> None:
        period = self.current_period()
        if period is None:
            self._event = None
            return
        delay = period
        if self.jitter > 0:
            delay += float(self._rng.uniform(-self.jitter, self.jitter))
        # Tick events never escape this timer: the handle is dropped before
        # the callback runs (in _tick) or at cancel(), so a recycling clock
        # (the simulator) may reuse the event object through its free list.
        self._event = self.clock.call_after(max(delay, 1e-9), self._tick,
                                            label=self.label, recyclable=True)

    def _tick(self) -> None:
        self._event = None
        if self._cancelled or self._stopped:
            return
        self.rounds_fired += 1
        self.callback()
        # The callback may have cancelled *or stopped* the timer (e.g. a node
        # crashing mid-round); only a still-running timer reschedules.
        if not self._cancelled and not self._stopped:
            self._schedule_next()
