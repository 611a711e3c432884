"""Generator-based processes on top of any :class:`Clock`.

A process is a Python generator that yields *commands*; the scheduler resumes
the generator when the command completes.  Supported commands:

* ``sleep(delay)`` — resume after ``delay`` clock seconds,
* a :class:`Waiter` — resume when some other component triggers it,
* another :class:`Process` — resume when that process finishes; the value it
  returned is sent back into the waiting generator.

This gives protocol code a compact sequential style (e.g. the two-phase
active-resolution protocol waits for acknowledgements, then visits the
top-layer members one by one) without threads.

The only scheduling primitive used is ``clock.call_after``, so the same
process code runs unchanged over the discrete-event
:class:`~repro.sim.engine.Simulator` and the wall-clock
:class:`~repro.live.clock.LiveClock` — this module is the reason the
resolution manager is backend-portable.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional


class _Sleep:
    """Internal command object produced by :func:`sleep`."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        if not delay >= 0:  # refuses NaN too, as the clocks do
            raise ValueError(f"delay must be >= 0, got {delay!r}")
        self.delay = delay


def sleep(delay: float) -> _Sleep:
    """Yield from a process to pause for ``delay`` clock seconds."""
    return _Sleep(delay)


class Waiter:
    """A one-shot synchronisation point a process can yield on.

    Another component calls :meth:`trigger` (optionally with a value); the
    waiting process is resumed with that value.  Triggering before anyone
    waits is allowed — the value is stored and delivered immediately when a
    process yields the waiter.
    """

    def __init__(self, clock) -> None:
        self._clock = clock
        self._triggered = False
        self._value: Any = None
        self._callbacks: list[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Wake every process waiting on this waiter."""
        if self._triggered:
            return
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for cb in callbacks:
            cb(value)

    def _add_callback(self, callback: Callable[[Any], None]) -> None:
        if self._triggered:
            # Deliver asynchronously so resumption order stays deterministic.
            self._clock.call_after(0.0, lambda: callback(self._value))
        else:
            self._callbacks.append(callback)


class Process:
    """A running generator-based process.

    Instances are usually created through ``clock.spawn`` (both the
    simulator and the live clock expose it).
    """

    def __init__(self, clock, generator: Iterable[Any], *, label: str = "") -> None:
        self.clock = clock
        self.label = label
        self._gen: Generator[Any, Any, Any] = iter(generator)  # type: ignore[assignment]
        self._finished = False
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._done_waiter = Waiter(clock)
        # Start on the next event-loop tick for determinism.
        clock.call_after(0.0, lambda: self._step(None), label=f"process-start:{label}")

    # ----------------------------------------------------------------- state
    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def result(self) -> Any:
        """The value returned by the generator (``None`` until finished)."""
        if self._exception is not None:
            raise self._exception
        return self._result

    @property
    def done_waiter(self) -> Waiter:
        """A waiter triggered (with the result) when the process finishes."""
        return self._done_waiter

    # ------------------------------------------------------------ scheduling
    def _step(self, send_value: Any) -> None:
        if self._finished:
            return
        try:
            command = self._gen.send(send_value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        except BaseException as exc:  # pragma: no cover - defensive
            self._exception = exc
            self._finish(None)
            raise
        self._dispatch(command)

    def _dispatch(self, command: Any) -> None:
        if isinstance(command, _Sleep):
            self.clock.call_after(command.delay, lambda: self._step(None),
                                  label=f"process-sleep:{self.label}")
        elif isinstance(command, Waiter):
            command._add_callback(lambda value: self._step(value))
        elif isinstance(command, Process):
            command.done_waiter._add_callback(lambda value: self._step(value))
        else:
            raise TypeError(
                f"process {self.label!r} yielded unsupported command {command!r}")

    def _finish(self, result: Any) -> None:
        self._finished = True
        self._result = result
        self._done_waiter.trigger(result)
