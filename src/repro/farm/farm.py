"""The sweep farm: schedule grid points over a worker pool, deterministically.

``SweepFarm`` takes an ordered list of :class:`~repro.farm.spec.PointSpec`
and executes them either

* **serially, in-process** (``jobs=1``) — the determinism oracle.  This is
  byte-for-byte the code path the experiment modules ran before the farm
  existed: points execute in grid order in the caller's process, so every
  count and fingerprint pinned in tier-1 replays bit-identically; or
* **in parallel** over a ``spawn``-started ``ProcessPoolExecutor``
  (``jobs>1``) with a bounded in-flight window, ordered aggregation,
  per-point wall/CPU telemetry, and worker-crash containment.

Failure containment (``jobs>1``):

* a point that *raises* reports its exception string + full traceback in
  its :class:`~repro.farm.outcomes.PointOutcome` and is retried up to
  ``retries`` times; the rest of the sweep is unaffected;
* a point whose *worker dies* (killed mid-point, segfault, unpicklable
  reply) breaks the whole pool — ``concurrent.futures`` fails every
  in-flight future with ``BrokenProcessPool``.  The farm rebuilds the pool
  and re-runs the crashed cohort one point at a time (quarantine), so the
  culprit is identified by elimination: innocents complete solo and carry
  no penalty, while the point that breaks the pool *alone* is charged a
  ``pool_break`` and finally failed once it exceeds ``crash_retries``.

Either way the aggregated result keeps one outcome per spec at its grid
index — a failed point never silently drops from the sweep.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

from repro.farm.outcomes import PointOutcome, SweepResult
from repro.farm.spec import PointSpec
from repro.farm.worker import Payload, WorkerReply, execute_payload

#: environment variable the benchmarks consult for their ``--jobs`` default
JOBS_ENV_VAR = "FARM_JOBS"


def default_jobs(fallback: int = 1) -> int:
    """The ``FARM_JOBS`` override, or ``fallback`` when unset/invalid."""
    raw = os.environ.get(JOBS_ENV_VAR, "").strip()
    if not raw:
        return fallback
    try:
        jobs = int(raw)
    except ValueError:
        return fallback
    return max(1, jobs)


class SweepFarm:
    """Run an ordered grid of point specs on ``jobs`` worker processes.

    Parameters
    ----------
    specs:
        The grid, in aggregation order.  Spec indices are reassigned to the
        position in this list so callers can build specs independently.
    jobs:
        Worker processes; ``1`` selects the serial in-process oracle.
    retries:
        Re-executions allowed for a point that raised (``jobs>1`` only —
        a deterministic point re-run in the same process would fail the
        same way, so the serial oracle fails fast instead).
    crash_retries:
        Solo re-runs allowed for a point that broke the worker pool.
    max_in_flight:
        Bound on concurrently submitted points (default ``2 × jobs``),
        keeping memory for queued specs/results flat on huge grids.
    mp_context:
        Multiprocessing start method; ``spawn`` (default) is the only one
        that is safe regardless of what the parent imported or forked.
    """

    def __init__(self, specs: Sequence[PointSpec], *, jobs: int = 1,
                 retries: int = 1, crash_retries: int = 1,
                 max_in_flight: Optional[int] = None,
                 mp_context: str = "spawn") -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if retries < 0 or crash_retries < 0:
            raise ValueError("retries must be >= 0")
        self.specs: List[PointSpec] = [
            spec if spec.index == i else
            PointSpec(func=spec.func, kwargs=spec.kwargs, index=i,
                      labels=spec.labels, seed=spec.seed)
            for i, spec in enumerate(specs)]
        self.jobs = jobs
        self.retries = retries
        self.crash_retries = crash_retries
        self._window = max_in_flight if max_in_flight else max(1, 2 * jobs)
        if self._window < 1:
            raise ValueError("max_in_flight must be >= 1")
        self._mp_context = mp_context
        self.pool_rebuilds = 0

    # ------------------------------------------------------------------
    def run(self) -> SweepResult:
        started = time.perf_counter()
        if self.jobs == 1 or not self.specs:
            outcomes = self._run_serial()
            executor = "serial"
        else:
            outcomes = self._run_pool()
            executor = "process"
        return SweepResult(outcomes=outcomes, jobs=self.jobs,
                           wall_seconds=time.perf_counter() - started,
                           pool_rebuilds=self.pool_rebuilds,
                           executor=executor)

    # ------------------------------------------------------------------
    # Serial oracle: in-order, in-process, fail-capturing but no retries.
    # ------------------------------------------------------------------
    def _run_serial(self) -> List[PointOutcome]:
        outcomes: List[PointOutcome] = []
        for spec in self.specs:
            reply = execute_payload(self._payload(spec))
            outcomes.append(self._outcome(spec, reply, attempts=1))
        return outcomes

    # ------------------------------------------------------------------
    # Process pool with bounded in-flight window and crash quarantine.
    # ------------------------------------------------------------------
    def _run_pool(self) -> List[PointOutcome]:
        specs = self.specs
        outcomes: List[Optional[PointOutcome]] = [None] * len(specs)
        attempts = [0] * len(specs)
        # Executions that completed with an error — the only thing that
        # consumes the ``retries`` budget.  An attempt interrupted by a pool
        # break (someone else's crash) is not the point's fault and costs it
        # nothing; pool-killing itself is governed by ``crash_retries``.
        errors = [0] * len(specs)
        pool_breaks = [0] * len(specs)
        pending = deque(range(len(specs)))

        pool = self._new_pool()
        try:
            while True:
                in_flight: Dict[Future, int] = {}
                crashed: List[int] = []
                broken = False
                while (pending or in_flight) and not broken:
                    while pending and len(in_flight) < self._window:
                        index = pending.popleft()
                        attempts[index] += 1
                        future = pool.submit(execute_payload,
                                             self._payload(specs[index]))
                        in_flight[future] = index
                    done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                    for future in done:
                        index = in_flight.pop(future)
                        state = self._absorb(future, index, specs, outcomes,
                                             attempts, errors,
                                             pool_breaks, pending)
                        if state == "broken":
                            crashed.append(index)
                            broken = True
                if not broken:
                    break
                # The pool is dead: every remaining in-flight future fails
                # with BrokenProcessPool too.  Drain them, rebuild, and
                # quarantine the crashed cohort.
                for future, index in in_flight.items():
                    state = self._absorb(future, index, specs, outcomes,
                                         attempts, errors,
                                         pool_breaks, pending)
                    if state == "broken":
                        crashed.append(index)
                pool.shutdown(wait=False, cancel_futures=True)
                pool = self._new_pool()
                self.pool_rebuilds += 1
                pool = self._quarantine(pool, crashed, specs, outcomes,
                                        attempts, errors, pool_breaks,
                                        pending)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

        # Every spec must have produced exactly one outcome.
        missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if missing:  # pragma: no cover - defensive: scheduling bug
            raise RuntimeError(f"sweep dropped points {missing}")
        return [outcome for outcome in outcomes if outcome is not None]

    def _quarantine(self, pool: ProcessPoolExecutor, crashed: List[int],
                    specs: Sequence[PointSpec],
                    outcomes: List[Optional[PointOutcome]],
                    attempts: List[int], errors: List[int],
                    pool_breaks: List[int],
                    pending: deque) -> ProcessPoolExecutor:
        """Re-run a crashed cohort solo to isolate the pool-killing point."""
        queue = deque(sorted(crashed))
        while queue:
            index = queue.popleft()
            attempts[index] += 1
            future = pool.submit(execute_payload, self._payload(specs[index]))
            try:
                reply = future.result()
            except BrokenProcessPool:
                # Alone in the pool when it died: this point is the killer.
                pool.shutdown(wait=False, cancel_futures=True)
                pool = self._new_pool()
                self.pool_rebuilds += 1
                pool_breaks[index] += 1
                if pool_breaks[index] > self.crash_retries:
                    outcomes[index] = PointOutcome(
                        spec=specs[index], ok=False,
                        error=(f"worker process died while running this point "
                               f"({pool_breaks[index]} pool break(s))"),
                        attempts=attempts[index],
                        pool_breaks=pool_breaks[index])
                else:
                    queue.append(index)
            except Exception as exc:  # pragma: no cover - submission error
                outcomes[index] = PointOutcome(
                    spec=specs[index], ok=False,
                    error=f"{type(exc).__qualname__}: {exc}",
                    attempts=attempts[index], pool_breaks=pool_breaks[index])
            else:
                outcome = self._outcome(specs[index], reply,
                                        attempts=attempts[index],
                                        pool_breaks=pool_breaks[index])
                if outcome.ok:
                    outcomes[index] = outcome
                    continue
                errors[index] += 1
                if errors[index] > self.retries:
                    outcomes[index] = outcome
                else:
                    pending.appendleft(index)
        return pool

    def _absorb(self, future: Future, index: int,
                specs: Sequence[PointSpec],
                outcomes: List[Optional[PointOutcome]],
                attempts: List[int], errors: List[int],
                pool_breaks: List[int],
                pending: deque) -> str:
        """Fold one completed future into the bookkeeping.

        Returns ``"ok"`` for an absorbed reply/failure and ``"broken"``
        when the future died with the pool (the caller quarantines it).
        """
        try:
            reply: WorkerReply = future.result()
        except BrokenProcessPool:
            return "broken"
        except Exception as exc:
            # The worker survived but the reply could not be retrieved
            # (e.g. unpicklable *exception* instance).  Point-level failure.
            outcome = PointOutcome(
                spec=specs[index], ok=False,
                error=f"{type(exc).__qualname__}: {exc}",
                attempts=attempts[index], pool_breaks=pool_breaks[index])
            errors[index] += 1
            if errors[index] <= self.retries:
                pending.append(index)
            else:
                outcomes[index] = outcome
            return "ok"
        outcome = self._outcome(specs[index], reply,
                                attempts=attempts[index],
                                pool_breaks=pool_breaks[index])
        if outcome.ok:
            outcomes[index] = outcome
            return "ok"
        errors[index] += 1
        if errors[index] > self.retries:
            outcomes[index] = outcome
        else:
            pending.append(index)
        return "ok"

    # ------------------------------------------------------------------
    def _payload(self, spec: PointSpec) -> Payload:
        return (spec.index, spec.func, spec.kwargs)

    @staticmethod
    def _outcome(spec: PointSpec, reply: WorkerReply, *, attempts: int,
                 pool_breaks: int = 0) -> PointOutcome:
        return PointOutcome(
            spec=spec, ok=reply.error is None, value=reply.value,
            error=reply.error, traceback=reply.traceback,
            attempts=attempts, pool_breaks=pool_breaks,
            wall_seconds=reply.wall_seconds, cpu_seconds=reply.cpu_seconds,
            worker_pid=reply.pid)

    def _new_pool(self) -> ProcessPoolExecutor:
        context = multiprocessing.get_context(self._mp_context)
        return ProcessPoolExecutor(max_workers=self.jobs, mp_context=context)


def run_specs(specs: Sequence[PointSpec], *, jobs: int = 1, retries: int = 1,
              crash_retries: int = 1, max_in_flight: Optional[int] = None):
    """Run a grid and return its ordered values (raising on any failure).

    The one-liner :func:`repro.experiments.run` dispatches through:
    ``jobs=1`` reproduces the pre-farm serial loops bit-identically.
    """
    farm = SweepFarm(specs, jobs=jobs, retries=retries,
                     crash_retries=crash_retries, max_in_flight=max_in_flight)
    return farm.run().values()
