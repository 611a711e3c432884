"""Paper-exact synthetic workload generators (pre-materialised schedules).

"Due to the lack of available traces, we use a synthetic workload that
assumes uniform distribution of the updating frequency for both
applications" (paper Section 6).  :class:`UniformWorkload` reproduces exactly
that schedule — every writer issues one update every ``period`` seconds for
``duration`` seconds (the paper: every 5 s for 100 s → 20 updates per
writer).  :class:`PoissonWorkload` is its bursty variant, used by the
airline-booking example.

Both generators materialise their full event list up front, which is fine
for paper-scale runs (a few thousand updates) and exactly wrong for the
million-operation runs the streaming layer targets — use
:class:`~repro.workloads.driver.TrafficDriver` for those.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.workloads.phases import _finite


@dataclass(frozen=True)
class WorkloadEvent:
    """One scheduled update: which writer writes at which simulated time."""

    time: float
    writer: str
    sequence_index: int


class UniformWorkload:
    """Every writer updates once per period, starting at ``start + period``."""

    def __init__(self, writers: Sequence[str], *, period: float = 5.0,
                 duration: float = 100.0, start: float = 0.0,
                 stagger: float = 0.0) -> None:
        if not writers:
            raise ValueError("workload needs at least one writer")
        self.writers = list(writers)
        self.period = _finite("period", period, positive=True)
        self.duration = _finite("duration", duration, positive=True)
        self.start = _finite("start", start)
        if _finite("stagger", stagger) >= period:
            raise ValueError("stagger must lie in [0, period)")
        self.stagger = stagger

    def updates_per_writer(self) -> int:
        """Number of updates each writer issues (paper: 100 s / 5 s = 20).

        The quotient is epsilon-tolerant: ``duration`` being a float multiple
        of ``period`` must not lose an update to representation error
        (``0.3 // 0.1 == 2.0`` in IEEE-754, but 0.3 s of one update per
        0.1 s is 3 updates).
        """
        return int(self.duration / self.period + 1e-9)

    def events(self) -> List[WorkloadEvent]:
        """The full schedule, ordered by time then writer."""
        events: List[WorkloadEvent] = []
        for k in range(1, self.updates_per_writer() + 1):
            base = self.start + k * self.period
            for i, writer in enumerate(self.writers):
                events.append(WorkloadEvent(time=base + i * self.stagger,
                                            writer=writer, sequence_index=k))
        events.sort(key=lambda e: (e.time, e.writer))
        return events

    def schedule(self, sim, issue: Callable[[str, int], None]) -> int:
        """Register every event with the simulator; returns the event count.

        ``issue(writer, sequence_index)`` is invoked at each event's time.
        """
        events = self.events()
        for event in events:
            sim.call_at(event.time,
                        lambda w=event.writer, k=event.sequence_index: issue(w, k),
                        label=f"workload:{event.writer}")
        return len(events)


class PoissonWorkload:
    """Writers update at exponentially distributed intervals (mean ``period``).

    The schedule is drawn once, on the first :meth:`events` call, and
    memoised: ``events()`` followed by ``schedule()`` (or repeated
    ``events()`` calls) all see the identical schedule instead of burning
    fresh RNG draws per call.
    """

    def __init__(self, writers: Sequence[str], *, mean_period: float = 5.0,
                 duration: float = 100.0, start: float = 0.0,
                 rng: Optional[np.random.Generator] = None) -> None:
        if not writers:
            raise ValueError("workload needs at least one writer")
        self.writers = list(writers)
        self.mean_period = _finite("mean_period", mean_period, positive=True)
        self.duration = _finite("duration", duration, positive=True)
        self.start = _finite("start", start)
        self._rng = rng or np.random.default_rng(0)
        self._events: Optional[List[WorkloadEvent]] = None

    def events(self) -> List[WorkloadEvent]:
        if self._events is None:
            events: List[WorkloadEvent] = []
            for writer in self.writers:
                t = self.start
                k = 0
                while True:
                    t += float(self._rng.exponential(self.mean_period))
                    if t > self.start + self.duration:
                        break
                    k += 1
                    events.append(WorkloadEvent(time=t, writer=writer,
                                                sequence_index=k))
            events.sort(key=lambda e: (e.time, e.writer))
            self._events = events
        return self._events

    def schedule(self, sim, issue: Callable[[str, int], None]) -> int:
        events = self.events()
        for event in events:
            sim.call_at(event.time,
                        lambda w=event.writer, k=event.sequence_index: issue(w, k),
                        label=f"workload:{event.writer}")
        return len(events)
