"""Discrete-event simulation engine.

The engine maintains a priority queue of timestamped events.  Each event
carries a callback; running the simulation pops events in time order and
invokes the callbacks, which may in turn schedule further events.  Ties in
time are broken by a monotonically increasing sequence number so that the
execution order is fully deterministic.

Simulated time is a ``float`` measured in **seconds**, matching the paper's
reporting units (update period of 5 s, background-resolution periods of
20 s / 40 s, resolution delays reported in milliseconds).

Hot-path design (see DESIGN.md "Hot path & event cost budget"):

* :class:`Event` is a ``__slots__`` class ordered by a pre-built
  ``(time, priority, seq)`` key, but the heap itself stores
  ``(time, priority, seq, event)`` tuples so ``heapq`` compares plain
  tuples in C — no Python ``__lt__`` call per sift step.
* Events that provably never escape to callers (network deliveries, timer
  ticks scheduled with ``recyclable=True``) are drawn from and returned to a
  bounded free list, so steady-state simulation allocates no event objects.
* An event may carry a single ``arg``; the run loop invokes
  ``callback(arg)`` when set and ``callback()`` otherwise.  This lets the
  network bind one ``_deliver`` method per network instead of allocating a
  capturing lambda per message.
* A scheduled event is one frame: ``call_at`` / ``call_after`` push onto the
  heap themselves (one body, :func:`_scheduler`), ``now`` is a plain
  attribute, and the run loop returns executed events to the free list in
  line.
"""

from __future__ import annotations

from heapq import heappop, heappush, heapify
from typing import Any, Callable, Iterable, Optional

from repro.transport.errors import TransportError


class SimulationError(TransportError):
    """Raised for invalid uses of the simulation engine.

    Subclasses the seam-level :class:`~repro.transport.errors.TransportError`
    so backend-agnostic code can catch scheduling misuse without importing
    the engine.
    """


#: sentinel distinguishing "no argument" from an argument of ``None``
_NO_ARG = object()


class Event:
    """A single scheduled event.

    Events are ordered by ``(time, priority, seq)``.  ``priority`` allows
    infrastructure events (e.g. message deliveries) to be ordered relative to
    application timers firing at the same instant; lower values run first.
    """

    __slots__ = ("time", "priority", "seq", "callback", "arg", "label",
                 "cancelled", "recyclable", "queue")

    def __init__(self, time: float, priority: int, seq: int,
                 callback: Callable[..., None], label: str = "",
                 cancelled: bool = False,
                 queue: Optional["EventQueue"] = None) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        #: optional single argument passed to ``callback`` (``_NO_ARG`` = none)
        self.arg: Any = _NO_ARG
        self.label = label
        self.cancelled = cancelled
        #: event may be returned to the queue's free list once executed or
        #: skipped; only set for events whose handle never escapes the caller
        self.recyclable = False
        #: owning queue while the event is pending; cleared once executed so a
        #: late ``cancel()`` on an already-run event is a no-op
        self.queue = queue

    def __lt__(self, other: "Event") -> bool:
        return ((self.time, self.priority, self.seq)
                < (other.time, other.priority, other.seq))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return (f"<Event t={self.time:g} prio={self.priority} seq={self.seq} "
                f"label={self.label!r} {state}>")

    def cancel(self) -> None:
        """Cancel the event; it will be skipped when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._note_cancelled()


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    Cancellation is lazy (cancelled events stay in the heap until popped),
    but the live count is maintained eagerly so ``len(queue)`` is O(1), and
    the heap is compacted whenever cancelled entries outnumber live ones, so
    long runs with many cancelled timers do not leak memory.

    The heap stores ``(time, priority, seq, event)`` tuples; ``seq`` is
    unique, so comparisons never reach the event object and stay in C.
    Events enter through :meth:`Simulator.call_at` /
    :meth:`Simulator.call_after`, which push onto the heap themselves.
    """

    #: below this heap size compaction is not worth the heapify cost
    COMPACTION_MIN_SIZE = 64
    #: upper bound on the recycled-event free list
    POOL_MAX_SIZE = 4096

    def __init__(self) -> None:
        self._heap: list[tuple] = []
        self._next_seq = 0
        self._live = 0
        self._cancelled = 0
        self._pool: list[Event] = []

    def __len__(self) -> int:
        return self._live

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap slots (for introspection)."""
        return self._cancelled

    @property
    def pool_size(self) -> int:
        """Events currently parked on the free list (for introspection)."""
        return len(self._pool)

    def _recycle(self, event: Event) -> None:
        """Return an executed/skipped recyclable event to the free list
        (``Simulator.run`` does the same in line for the events it runs)."""
        if len(self._pool) < self.POOL_MAX_SIZE:
            event.callback = None
            event.arg = _NO_ARG
            event.queue = None
            self._pool.append(event)

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._cancelled += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if (self._cancelled > self._live
                and len(self._heap) >= self.COMPACTION_MIN_SIZE):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify the survivors.

        Mutates the heap list in place: ``Simulator.run`` holds a direct
        reference to it across callbacks, and a callback may trigger
        compaction (via a cancellation) mid-run.
        """
        survivors = []
        for entry in self._heap:
            event = entry[3]
            if event.cancelled:
                if event.recyclable:
                    self._recycle(event)
            else:
                survivors.append(entry)
        self._heap[:] = survivors
        heapify(self._heap)
        self._cancelled = 0

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap:
            event = heappop(heap)[3]
            if event.cancelled:
                self._cancelled -= 1
                if event.recyclable:
                    self._recycle(event)
                continue
            self._live -= 1
            event.queue = None
            return event
        return None


def _scheduler(relative: bool) -> Callable[..., Event]:
    """Build ``Simulator.call_at`` (``relative=False``) or ``call_after``.

    The two differ only in how they read their first argument, so they share
    this one body, and each pushes onto the heap in its own frame.
    ``recyclable=True`` promises the caller will not retain the handle after
    it has fired or been cancelled; such events are drawn from and returned
    to the queue's free list, so the steady state allocates nothing.
    """
    def schedule(self: "Simulator", when: float, callback: Callable[..., None],
                 *, priority: int = 0, label: str = "", arg: Any = _NO_ARG,
                 recyclable: bool = False) -> Event:
        # ``not x >= y`` refuses NaN as well as the past
        if relative:
            if not when >= 0:
                raise ValueError(f"delay must be >= 0, got {when!r}")
            time = self.now + when
        elif not when >= self.now:
            raise ValueError(f"time must be >= now ({self.now!r}), "
                             f"got {when!r}")
        else:
            time = when
        queue = self._queue
        seq = queue._next_seq
        queue._next_seq = seq + 1
        pool = queue._pool
        if recyclable and pool:
            event = pool.pop()
            event.time = time
            event.priority = priority
            event.seq = seq
            event.callback = callback
            event.label = label
            event.cancelled = False
            event.queue = queue
        else:
            event = Event(time, priority, seq, callback, label, False, queue)
        event.arg = arg
        event.recyclable = recyclable
        heappush(queue._heap, (time, priority, seq, event))
        queue._live += 1
        return event

    return schedule


class Simulator:
    """The discrete-event simulator driving every experiment in this repo.

    Typical usage::

        sim = Simulator(seed=7)
        sim.call_at(1.0, lambda: print("hello at t=1"))
        sim.run(until=10.0)

    The simulator also owns the shared :class:`~repro.sim.random.RandomStreams`
    instance so that all stochastic components (latency jitter, gossip fanout
    choices, workload generators) derive their randomness from a single seed.
    """

    #: priority used for network message delivery events
    PRIORITY_NETWORK = -1
    #: priority used for ordinary timers
    PRIORITY_TIMER = 0

    def __init__(self, seed: int = 0) -> None:
        from repro.sim.random import RandomStreams

        self._queue = EventQueue()
        #: current simulated time in seconds; only :meth:`run` advances it
        self.now = 0.0
        self._running = False
        self._stopped = False
        self.seed = seed
        self.random = RandomStreams(seed)
        self._event_count = 0

    @property
    def events_processed(self) -> int:
        """Total number of events executed so far."""
        return self._event_count

    # ------------------------------------------------------------- scheduling
    call_at = _scheduler(relative=False)
    call_at.__doc__ = "Schedule ``callback`` at absolute simulated time ``when``."
    call_after = _scheduler(relative=True)
    call_after.__doc__ = "Schedule ``callback`` ``when`` seconds from now."

    def spawn(self, generator: Iterable[Any], *, label: str = "") -> "Process":
        """Run a generator-based process (see :mod:`repro.transport.tasks`)."""
        from repro.transport.tasks import Process

        return Process(self, generator, label=label)

    # ------------------------------------------------------------------- run
    def stop(self) -> None:
        """Request that :meth:`run` returns after the current event."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run the simulation.

        Parameters
        ----------
        until:
            Stop once simulated time would exceed this value.  Events at
            exactly ``until`` are executed.
        max_events:
            Safety valve for runaway simulations.

        Returns
        -------
        float
            The simulated time when the run stopped.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self._stopped = False
        # Inner-loop locals: one attribute lookup each instead of one per event.
        queue = self._queue
        heap = queue._heap
        pool = queue._pool
        pool_max = queue.POOL_MAX_SIZE
        pop_head = heappop
        no_arg = _NO_ARG
        try:
            while not self._stopped:
                if max_events is not None and self._event_count >= max_events:
                    break
                # Inline peek: skip cancelled heads with pop's bookkeeping.
                while heap and heap[0][3].cancelled:
                    skipped = pop_head(heap)[3]
                    queue._cancelled -= 1
                    if skipped.recyclable:
                        queue._recycle(skipped)
                if not heap:
                    # Nothing left to execute: advance the clock to the
                    # requested horizon so callers see time pass even in an
                    # idle system.
                    if until is not None and until > self.now:
                        self.now = until
                    break
                next_time = heap[0][0]
                if until is not None and next_time > until:
                    self.now = until
                    break
                event = pop_head(heap)[3]
                queue._live -= 1
                event.queue = None
                self.now = next_time
                self._event_count += 1
                arg = event.arg
                if arg is no_arg:
                    event.callback()
                else:
                    event.callback(arg)
                # EventQueue._recycle in line: the callback and argument are
                # dropped, the rest is overwritten when the event is reused
                if event.recyclable and len(pool) < pool_max:
                    event.callback = None
                    event.arg = no_arg
                    pool.append(event)
            return self.now
        finally:
            self._running = False

    def run_until_idle(self, max_events: int = 10_000_000) -> float:
        """Run until no events remain (or ``max_events`` is hit)."""
        return self.run(max_events=max_events)
