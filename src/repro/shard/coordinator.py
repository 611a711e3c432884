"""The lockstep-window coordinator for space-partitioned runs.

:class:`ShardedSimulation` spawns one worker process per shard (spawn start
method, like ``repro.farm``), each rebuilding its slice of the deployment
from a picklable callable reference, and advances them all in lockstep
windows:

1. every shard receives ``("step", barrier, inbox)`` — the cross-shard
   messages other shards flushed during the *previous* window, each carrying
   its original delivery timestamp — and runs its local simulator to the
   barrier;
2. every shard replies with its window outbox, which the coordinator routes
   by destination shard into the next round's inboxes.

The window width is the plan's conservative lookahead (minimum cross-shard
``min_delay``), so an outboxed message always has ``deliver_at`` beyond the
next barrier and arrives before its shard simulates past it.  One extra
drain round at the horizon itself lets deliveries landing *exactly* at the
horizon execute, matching the in-process oracle's ``run(until=horizon)``
semantics; anything still in flight beyond the horizon is discarded — the
oracle would have left it unexecuted in its heap.

:func:`run_single_process` is the ``shards=1`` oracle: the very same
deployment built without partitioning, run by today's engine, summarised
with the same fingerprint.  Sharded runs must reproduce its fingerprint
bit-for-bit.
"""

from __future__ import annotations

import math
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.farm.spec import resolve_callable
from repro.shard.partition import ShardPlan
from repro.shard.state import state_fingerprint
from repro.shard.worker import shard_worker_main


class ShardError(RuntimeError):
    """A sharded run failed (worker crash, protocol error, bad plan)."""


class ShardWorkerError(ShardError):
    """A shard worker reported an exception or died unexpectedly."""

    def __init__(self, shard_index: int, error: str,
                 worker_traceback: str = "") -> None:
        super().__init__(f"shard {shard_index}: {error}")
        self.shard_index = shard_index
        self.error = error
        self.worker_traceback = worker_traceback


@dataclass
class ShardRunResult:
    """Merged outcome of one run (sharded or the single-process oracle)."""

    shards: int
    horizon: float
    window: Optional[float]
    windows: int
    events: int
    writes: int
    sent: int
    delivered: int
    state_sha: str
    wall_seconds: float
    cross_shard_messages: int = 0
    per_shard_events: Tuple[int, ...] = ()
    per_shard_nodes: Tuple[int, ...] = ()
    max_window_events: int = 0
    mean_window_events: float = 0.0
    state_items: List[str] = field(default_factory=list, repr=False)

    def fingerprint(self) -> Dict:
        """The replay-gated invariants: identical across shard counts."""
        return {"events": self.events, "writes": self.writes,
                "sent": self.sent, "delivered": self.delivered,
                "state_sha": self.state_sha}

    def telemetry(self) -> Dict:
        """Host- and decomposition-dependent facts (recorded, not gated)."""
        return {"shards": self.shards, "window": self.window,
                "windows": self.windows,
                "wall_seconds": self.wall_seconds,
                "cross_shard_messages": self.cross_shard_messages,
                "per_shard_events": list(self.per_shard_events),
                "per_shard_nodes": list(self.per_shard_nodes),
                "max_window_events": self.max_window_events,
                "mean_window_events": self.mean_window_events}


class ShardedSimulation:
    """Drive one deployment split across worker processes to a horizon.

    Parameters
    ----------
    prepare_ref:
        ``module:qualname`` of a callable ``prepare(shard_index=, plan=,
        **kwargs) -> IdeaDeployment`` that builds one shard's slice (must be
        importable from a spawn-started child, like farm point functions).
    kwargs:
        Scenario parameters forwarded to ``prepare`` (picklable).
    plan:
        The :class:`ShardPlan` (needs ``num_shards >= 2``; use
        :func:`run_single_process` for the oracle).
    horizon:
        Simulated-time end, as in ``deployment.run(until=horizon)``.
    window:
        Lockstep window width; must not exceed the plan's lookahead.
    """

    def __init__(self, prepare_ref: str, kwargs: Dict, *, plan: ShardPlan,
                 horizon: float, window: float,
                 mp_context: str = "spawn") -> None:
        if plan.num_shards < 2:
            raise ShardError("ShardedSimulation needs >= 2 shards; "
                             "run_single_process is the shards=1 oracle")
        if window <= 0:
            raise ShardError(f"window must be positive, got {window!r}")
        if horizon <= 0:
            raise ShardError(f"horizon must be positive, got {horizon!r}")
        self.prepare_ref = prepare_ref
        self.kwargs = dict(kwargs)
        self.plan = plan
        self.horizon = float(horizon)
        self.window = float(window)
        self._mp_context = mp_context

    # ------------------------------------------------------------------
    def run(self) -> ShardRunResult:
        started = time.perf_counter()
        context = multiprocessing.get_context(self._mp_context)
        shards = self.plan.num_shards
        processes = []
        conns = []
        try:
            for shard_index in range(shards):
                parent_conn, child_conn = context.Pipe(duplex=True)
                payload = {"prepare_ref": self.prepare_ref,
                           "kwargs": self.kwargs, "plan": self.plan,
                           "shard_index": shard_index, "window": self.window}
                process = context.Process(
                    target=shard_worker_main, args=(child_conn, payload),
                    name=f"repro-shard-{shard_index}", daemon=True)
                process.start()
                child_conn.close()  # child's end lives in the child now
                processes.append(process)
                conns.append(parent_conn)

            per_shard_nodes = []
            for shard_index, conn in enumerate(conns):
                kind, info = self._recv(conn, shard_index)
                if kind != "ready":  # pragma: no cover - protocol bug
                    raise ShardWorkerError(shard_index,
                                           f"expected ready, got {kind!r}")
                per_shard_nodes.append(info["local_nodes"])

            num_windows = max(1, math.ceil(self.horizon / self.window))
            barriers = [min((k + 1) * self.window, self.horizon)
                        for k in range(num_windows)]
            # Drain round: a message flushed in the final window may deliver
            # exactly at the horizon; the oracle executes events at exactly
            # ``until``, so one more step at the horizon itself matches it.
            barriers.append(self.horizon)

            inboxes: List[List] = [[] for _ in range(shards)]
            per_shard_events = [0] * shards
            cross_messages = 0
            max_window_events = 0
            total_window_events = 0
            node_shard = self.plan.node_shard

            for barrier in barriers:
                for shard_index, conn in enumerate(conns):
                    conn.send(("step", barrier, inboxes[shard_index]))
                next_inboxes: List[List] = [[] for _ in range(shards)]
                window_events = 0
                for shard_index, conn in enumerate(conns):
                    kind, outbox, events = self._recv(conn, shard_index)
                    if kind != "flushed":  # pragma: no cover - protocol bug
                        raise ShardWorkerError(shard_index,
                                               f"expected flushed, got {kind!r}")
                    per_shard_events[shard_index] += events
                    window_events += events
                    for entry in outbox:
                        next_inboxes[node_shard[entry[2]]].append(entry)
                        cross_messages += 1
                inboxes = next_inboxes
                max_window_events = max(max_window_events, window_events)
                total_window_events += window_events
            # Whatever was flushed at the horizon barrier delivers strictly
            # after the horizon; the oracle leaves those in its heap too.

            states = []
            for shard_index, conn in enumerate(conns):
                conn.send(("finish",))
                kind, state = self._recv(conn, shard_index)
                if kind != "result":  # pragma: no cover - protocol bug
                    raise ShardWorkerError(shard_index,
                                           f"expected result, got {kind!r}")
                states.append(state)
            for conn in conns:
                conn.send(("close",))
            for process in processes:
                process.join(timeout=30)

            items: List[str] = []
            events = writes = sent = delivered = 0
            for state in states:
                events += state["events"]
                writes += state["writes"]
                sent += state["sent"]
                delivered += state["delivered"]
                items.extend(state["items"])
            rounds = len(barriers)
            return ShardRunResult(
                shards=shards, horizon=self.horizon, window=self.window,
                windows=rounds, events=events, writes=writes, sent=sent,
                delivered=delivered, state_sha=state_fingerprint(items),
                state_items=items,
                wall_seconds=time.perf_counter() - started,
                cross_shard_messages=cross_messages,
                per_shard_events=tuple(per_shard_events),
                per_shard_nodes=tuple(per_shard_nodes),
                max_window_events=max_window_events,
                mean_window_events=total_window_events / rounds)
        finally:
            for conn in conns:
                try:
                    conn.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5)

    @staticmethod
    def _recv(conn, shard_index: int):
        """Receive one worker message, translating failures to ShardWorkerError."""
        try:
            reply = conn.recv()
        except EOFError:
            raise ShardWorkerError(shard_index,
                                   "worker process exited unexpectedly") from None
        if reply[0] == "error":
            raise ShardWorkerError(shard_index, reply[1], reply[2])
        return reply


def run_single_process(prepare_ref: str, kwargs: Dict, *,
                       horizon: float) -> ShardRunResult:
    """The ``shards=1`` determinism oracle: build unpartitioned, run inline.

    ``prepare`` is called with ``shard_index=0, plan=None`` so the same
    scenario function serves both modes; with ``plan=None`` it must build
    the full, unpartitioned deployment on today's engine.
    """
    started = time.perf_counter()
    prepare = resolve_callable(prepare_ref)
    deployment = prepare(shard_index=0, plan=None, **kwargs)
    deployment.run(until=horizon)
    from repro.shard.state import collect_shard_state

    state = collect_shard_state(deployment)
    return ShardRunResult(
        shards=1, horizon=float(horizon), window=None, windows=0,
        events=state["events"], writes=state["writes"], sent=state["sent"],
        delivered=state["delivered"],
        state_sha=state_fingerprint(state["items"]),
        state_items=state["items"],
        wall_seconds=time.perf_counter() - started,
        per_shard_events=(state["events"],),
        per_shard_nodes=(len(deployment.nodes),))
