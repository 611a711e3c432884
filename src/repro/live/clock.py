"""Wall-clock implementation of the transport seam's ``Clock``.

:class:`LiveClock` adapts an asyncio event loop to the scheduling surface
protocol code expects from the simulator: ``now`` (seconds since the clock
was created, so protocol timestamps stay small and comparable across a
deployment started together), ``call_at``/``call_after`` returning
cancellable handles, ``spawn`` for generator processes, and a seeded
:class:`~repro.sim.random.RandomStreams`.

``asyncio.TimerHandle`` already satisfies the ``Cancellable`` contract, so
handles are returned as-is — no wrapper allocation per scheduled callback.
The simulator-only keyword arguments (``priority``, ``recyclable``,
``label``) are accepted and ignored: priorities order simultaneous events,
and on a wall clock no two events are simultaneous.
"""

from __future__ import annotations

import asyncio
from math import inf
from typing import Any, Callable, Iterable, Optional

from repro.sim.random import RandomStreams
from repro.transport.tasks import Process

#: sentinel distinguishing "no argument" from an argument of ``None``
#: (mirrors the simulator's engine-private sentinel)
_NO_ARG = object()


class LiveClock:
    """Seam ``Clock`` over an asyncio event loop."""

    def __init__(self, *, seed: int = 0,
                 loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop if loop is not None else asyncio.get_event_loop()
        self._t0 = self._loop.time()
        self.seed = seed
        self.random = RandomStreams(seed)

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Seconds since this clock was created (monotonic)."""
        return self._loop.time() - self._t0

    def rebase(self, t0: Optional[float] = None) -> float:
        """Move the clock's origin and return the new ``_t0``.

        With no argument, ``now`` becomes 0 — deployments call this after
        the ready barrier so every process's scenario timeline starts
        together.  A *recovering* process instead passes the original
        epoch (the ``loop.time()``/``time.monotonic()`` value the first
        incarnation recorded, comparable across processes on one host), so
        its ``now`` resumes mid-timeline rather than replaying from 0.
        """
        self._t0 = self._loop.time() if t0 is None else float(t0)
        return self._t0

    # ------------------------------------------------------------- scheduling
    def call_after(self, delay: float, callback: Callable[..., None], *,
                   priority: int = 0, label: str = "", arg: Any = _NO_ARG,
                   recyclable: bool = False) -> asyncio.TimerHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        # ``not x >= 0`` refuses NaN (call_at's too) as well as the past
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        if arg is _NO_ARG:
            return self._loop.call_later(delay, callback)
        return self._loop.call_later(delay, callback, arg)

    def call_at(self, time: float, callback: Callable[..., None], *,
                priority: int = 0, label: str = "", arg: Any = _NO_ARG,
                recyclable: bool = False) -> asyncio.TimerHandle:
        """Schedule ``callback`` at absolute clock time ``time`` (clamped to now)."""
        if not time > -inf:  # NaN fails it too
            raise ValueError(f"time must be a number, got {time!r}")
        return self.call_after(max(time - self.now, 0.0), callback,
                               priority=priority, label=label, arg=arg,
                               recyclable=recyclable)

    def spawn(self, generator: Iterable[Any], *, label: str = "") -> Process:
        """Run a generator-based process (see :mod:`repro.transport.tasks`)."""
        return Process(self, generator, label=label)
