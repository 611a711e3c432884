"""Run a grid of point specs, serially or over spawned worker processes.

``jobs=1`` runs the points in grid order in the caller's process — the
determinism oracle, byte-for-byte the loop the experiment modules ran before
the farm existed, so every count pinned in tier-1 replays bit-identically.
``jobs>1`` submits every spec to one ``spawn``-started
``ProcessPoolExecutor`` and collects the replies in list order, whatever
order they complete in.

A point is attempted once.  One that raises is caught where it runs and
comes back as data (error text and traceback); after every point has
finished, :func:`run_specs` raises one :class:`FarmPointError` naming them
all.  A worker that dies (SIGKILL, segfault) breaks the pool, and the
``BrokenProcessPool`` propagates out of :func:`run_specs`.
"""

from __future__ import annotations

import multiprocessing
import traceback
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.farm.spec import PointSpec, resolve_callable

#: one point's reply: ``(value, None)`` or ``(None, (error, traceback))``
Reply = Tuple[Any, Optional[Tuple[str, str]]]


class FarmPointError(RuntimeError):
    """Raised by :func:`run_specs` when any point failed.

    ``failures`` holds one ``(position, label, error)`` per failed point, in
    grid order; the message names them all and ends with the first
    failure's traceback.
    """

    def __init__(self, failures: List[Tuple[int, str, str]],
                 first_traceback: str) -> None:
        self.failures = failures
        lines = [f"{len(failures)} sweep point(s) failed:"]
        lines += [f"  [{position}] {label}: {error}"
                  for position, label, error in failures]
        lines += ["first failure traceback:", first_traceback.rstrip()]
        super().__init__("\n".join(lines))


def _failed(exc: Exception) -> Reply:
    """The reply for ``exc``, called while it is being handled."""
    return None, (f"{type(exc).__qualname__}: {exc}", traceback.format_exc())


def _execute(func: str, kwargs: Dict[str, Any]) -> Reply:
    """Run one point; an exception it raises comes back as data."""
    try:
        return resolve_callable(func)(**kwargs), None
    except Exception as exc:
        return _failed(exc)


def _collect(future: Future) -> Reply:
    """A worker's reply; one that could not be pickled fails its point."""
    try:
        return future.result()
    except BrokenProcessPool:
        raise
    except Exception as exc:
        return _failed(exc)


def run_specs(specs: Sequence[PointSpec], *, jobs: int = 1) -> List[Any]:
    """Run a grid on ``jobs`` processes and return its values in grid order.

    Raises :class:`FarmPointError` when any point raised, and
    ``BrokenProcessPool`` when a worker died.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if jobs == 1:
        replies = [_execute(spec.func, spec.kwargs) for spec in specs]
    else:
        spawn = multiprocessing.get_context("spawn")
        pool = ProcessPoolExecutor(jobs, spawn)
        try:
            futures = [pool.submit(_execute, spec.func, spec.kwargs)
                       for spec in specs]
            replies = [_collect(future) for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    failures: List[Tuple[int, str, str]] = []
    first_traceback = ""
    for position, (spec, (_, error)) in enumerate(zip(specs, replies)):
        if error:
            failures.append((position, spec.label, error[0]))
            first_traceback = first_traceback or error[1]
    if failures:
        raise FarmPointError(failures, first_traceback)
    return [value for value, _ in replies]
