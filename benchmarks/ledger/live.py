"""``live-uds``: the live backend over real UNIX sockets, one asyncio loop.

Four nodes × two objects, wired with the repo's own ``make_addresses`` +
``build_live_stack`` (each node its own ``LiveClock``, ``LiveTransport``,
listening socket and per-peer sender tasks — the 12 mesh connections belong
to the system under test; the load generator opens none).  One OS process
per node would measure the scheduler on this 2-core host, so the process
boundary is the only thing collapsed.

Load:

* **writers** — closed loop, one client per node, zero think time.  A write
  completes when every peer has ingested the digest it announced (the
  detection probe's sink signals that); a write refused by a resolution
  block counts against ``ok_op_frac`` and retries after 1 ms; a write no
  peer set confirms within 5 s is a *failed* op.
* **resolver** — open loop on the *work* clock: every ``RESOLVE_EVERY``
  confirmed writes a round falls due; ``n00`` then demands active resolution
  on alternating objects and every node runs ``truncate_stable``.  A round
  is timed from the instant it fell due, so a busy loop or a round still in
  progress shows up as resolution delay; how late the demands went out is
  reported beside it.  (A wall-clock period would tie the number of rounds,
  the retained log and the blocked share of writes to the host's speed of
  the minute; see README "host noise".)
* **heartbeat** — a 10 ms tick whose lateness is the loop-lag metric; it
  also samples the deepest outbound frame queue.  Present in both passes,
  so they schedule identically.

The loop only runs inside :meth:`LiveUds.step` / ``build`` / ``close``;
between steps the harness times its calibration loop (≈ 1 ms) while the
sockets buffer, which a heartbeat tick can see as up to that much lag.
"""

from __future__ import annotations

import asyncio
import os
import random
import shutil
from typing import Any, Dict, List, Optional, Tuple

from repro.live.scenario import (NodeStack, ScenarioSpec, build_live_stack,
                                 make_addresses)
from repro.runtime.events import ResolutionCompleted

from benchmarks.ledger.harness import (ROOT, Check, DetectProbe, Workload,
                                       converged)

#: sockets live under the checkout; the path handed to bind() is kept
#: relative because AF_UNIX paths are capped at ~108 bytes
RUN_ROOT = ROOT / ".ledger_run"


class LiveUds(Workload):
    name = "live-uds"
    backend = "live"
    why = ("only workload on live.wire framing, live.transport queues and "
           "sockets, live.clock; CPU-saturated loop, so per-frame CPU saved "
           "shows in us_per_op and in detection latency; unmoved by sim-only "
           "changes")
    build_metric = "live.scenario.build_s"

    NODES = 4
    OBJECTS = 2
    RESOLVE_EVERY = 200
    RETRY_AFTER = 0.001
    HEARTBEAT = 0.010
    #: a round or a write not done after this long is counted as failed
    GIVE_UP_AFTER = 5.0

    def __init__(self, seed: int, sizes: Dict[str, Any],
                 tracer: Any = None) -> None:
        super().__init__(seed, sizes, tracer)
        self.loop = asyncio.new_event_loop()
        self._stacks: Dict[str, NodeStack] = {}
        self._peers = self.NODES - 1
        # wall-clock samples of the step in progress, scaled in after_step()
        self._step_detect: List[float] = []
        self._step_resolve: List[float] = []
        # per-layer gauges (sampled by the heartbeat while measuring)
        self.loop_lag_ms: List[float] = []
        self.resolver_late_ms: List[float] = []
        self.queue_depth_max = 0
        self.resolver_failed = 0
        self.shutdown_errors = 0
        self._measuring = False
        self._step_lost = 0

    def make_probe(self) -> DetectProbe:
        return DetectProbe(sink=self._on_ingest)

    # ------------------------------------------------------------- build
    def build(self, leg: int) -> None:
        self.loop.run_until_complete(self._build(leg))

    async def _build(self, leg: int) -> None:
        loop = self.loop
        nodes = [f"n{i:02d}" for i in range(self.NODES)]
        self._objects = [f"obj{j}" for j in range(self.OBJECTS)]
        spec = ScenarioSpec(nodes=nodes, objects=self._objects, writes=[],
                            resolutions=[], truncate_at=float("inf"),
                            duration=float("inf"), seed=self.leg_seed(leg))
        self._rundir = RUN_ROOT / f"{os.getpid()}-{leg}"
        self._rundir.mkdir(parents=True, exist_ok=True)
        rundir = os.path.relpath(self._rundir)
        if len(rundir) > 80:
            raise RuntimeError(
                f"socket directory {rundir!r} is too long for AF_UNIX; run "
                f"the benchmark from the root of the checkout")
        addresses = make_addresses(nodes, "uds", rundir)
        self._stacks = {node: build_live_stack(spec, node, addresses,
                                               kind="uds", loop=loop)
                        for node in nodes}
        for stack in self._stacks.values():
            await stack.node.transport.start()
        origin = loop.time()
        for stack in self._stacks.values():
            stack.node.clock.rebase(origin)  # one time base for issued_at
            stack.gossip.start()
        self._initiator = self._stacks[nodes[0]]
        self._initiator.runtime.bus.subscribe(ResolutionCompleted,
                                              self._on_resolved)
        self._deltas = random.Random(self.leg_seed(leg))
        self._confirmed = 0
        self._target = 0
        self._reached: Optional[asyncio.Future] = None
        self._pending: Dict[str, list] = {}
        self._round_done: Optional[asyncio.Future] = None
        self._rounds_due: List[float] = []
        self._round_due = asyncio.Event()
        self._stopping = False
        self._tasks = [loop.create_task(self._writer(stack))
                       for stack in self._stacks.values()]
        self._tasks.append(loop.create_task(self._resolver()))
        self._tasks.append(loop.create_task(self._heartbeat()))

    # --------------------------------------------------------------- load
    async def _writer(self, stack: NodeStack) -> None:
        loop = self.loop
        node_id = stack.node.node_id
        tracer = self.tracer
        turn = 0
        while not self._stopping:
            object_id = self._objects[turn % self.OBJECTS]
            turn += 1
            done = loop.create_future()
            # registered before write(): the first peer may ingest at once
            self._pending[node_id] = [object_id, 0, done]
            if tracer is not None:
                tracer.begin_op()
            outcome = stack.middlewares[object_id].write(
                payload={"writer": node_id, "n": turn},
                metadata_delta=self._deltas.uniform(0.5, 1.5))
            if self._measuring:
                self.attempted += 1
            if outcome is None:
                del self._pending[node_id]
                if self._measuring:
                    self.refused += 1
                self._step_lost += 1
                await asyncio.sleep(self.RETRY_AFTER)
                continue
            try:
                await asyncio.wait_for(done, self.GIVE_UP_AFTER)
            except asyncio.TimeoutError:
                self._pending.pop(node_id, None)
                if self._measuring:
                    self.failed += 1
                self._step_lost += 1

    def _on_ingest(self, service: Any, digest: Any, latency: float) -> None:
        """Probe sink: a peer ingested ``digest`` ``latency`` s after issue."""
        entry = self._pending.get(digest.node_id)
        if entry is None or entry[0] != digest.object_id:
            return
        entry[1] += 1
        if entry[1] < self._peers:
            return
        # the last peer has it: the write is detected everywhere
        del self._pending[digest.node_id]
        if self._measuring:
            self._step_detect.append(latency * 1e3)
        self._confirmed += 1
        if self._confirmed % self.RESOLVE_EVERY == 0:
            self._rounds_due.append(self.loop.time())
            self._round_due.set()
        if not entry[2].done():
            entry[2].set_result(None)
        if (self._reached is not None and self._confirmed >= self._target
                and not self._reached.done()):
            self._reached.set_result(None)

    async def _resolver(self) -> None:
        loop = self.loop
        nodes = list(self._stacks)
        k = 0
        while True:
            while not self._rounds_due:
                self._round_due.clear()
                await self._round_due.wait()
            due = self._rounds_due.pop(0)
            if self._measuring:
                self.resolver_late_ms.append((loop.time() - due) * 1e3)
            object_id = self._objects[k % self.OBJECTS]
            k += 1
            took = await self._demand(object_id, due)
            if took is None:
                if self._measuring:
                    self.resolver_failed += 1
            elif self._measuring:
                self._step_resolve.append(took * 1e3)
            for stack in self._stacks.values():
                stack.middlewares[object_id].truncate_stable(nodes,
                                                             keep_window=0.0)

    async def _demand(self, object_id: str, due: float) -> Optional[float]:
        """One demanded round from ``n00``; seconds since ``due`` or None."""
        self._round_done = self.loop.create_future()
        if not self._initiator.middlewares[object_id].demand_active_resolution():
            return None
        try:
            await asyncio.wait_for(self._round_done, self.GIVE_UP_AFTER)
        except asyncio.TimeoutError:
            return None
        return self.loop.time() - due

    def _on_resolved(self, event: ResolutionCompleted) -> None:
        if self._round_done is not None and not self._round_done.done():
            self._round_done.set_result(event.result)

    async def _heartbeat(self) -> None:
        loop = self.loop
        due = loop.time()
        while True:
            due += self.HEARTBEAT
            await asyncio.sleep(max(0.0, due - loop.time()))
            if not self._measuring:
                continue
            self.loop_lag_ms.append((loop.time() - due) * 1e3)
            depth = max((len(link.frames)
                         for stack in self._stacks.values()
                         for link in stack.node.transport._peers.values()),
                        default=0)
            if depth > self.queue_depth_max:
                self.queue_depth_max = depth

    # -------------------------------------------------------------- steps
    def step(self) -> Tuple[int, int]:
        self._step_lost = 0
        before = self._confirmed
        self._target += self.sizes["step_ops"]
        if self._confirmed < self._target:
            self._reached = self.loop.create_future()
            self.loop.run_until_complete(self._reached)
        confirmed = self._confirmed - before
        return confirmed + self._step_lost, self._step_lost

    def after_step(self, slowdown: float) -> None:
        self.detect_ms.extend(ms / slowdown for ms in self._step_detect)
        self.resolve_ms.extend(ms / slowdown for ms in self._step_resolve)
        self._step_detect.clear()
        self._step_resolve.clear()

    def begin_spans(self) -> None:
        self._measuring = True
        self._began_at = self._initiator.node.clock.now
        self._layer_at_begin = self._layer_snapshot()
        self._step_detect.clear()
        self._step_resolve.clear()

    def _layer_snapshot(self) -> Dict[str, float]:
        """Absolute counts summed over the four nodes."""
        snap = {"sent": 0, "resolution_msgs": 0, "live_drops": 0,
                "live_reconnects": 0, "cache_hits": 0, "cache_misses": 0,
                "entries_folded": 0}
        for stack in self._stacks.values():
            transport = stack.node.transport
            snap["sent"] += sum(transport.stats.sent.values())
            snap["resolution_msgs"] += transport.stats.total_sent("idea.resolution")
            snap["live_drops"] += sum(transport.stats.dropped.values())
            snap["live_reconnects"] += transport.reconnects
            snap["cache_hits"] += stack.runtime.digests.hits
            snap["cache_misses"] += stack.runtime.digests.misses
            snap["entries_folded"] += sum(
                middleware.replica.truncation_stats.entries_folded
                for middleware in stack.middlewares.values())
        return snap

    def sample(self) -> int:
        return sum(middleware.replica.retained_log_entries()
                   for stack in self._stacks.values()
                   for middleware in stack.middlewares.values())

    def end_spans(self) -> None:
        self._measuring = False
        end = self._layer_snapshot()
        self._layer_delta = {key: value - self._layer_at_begin[key]
                             for key, value in end.items()}
        self.messages += self._layer_delta["sent"]

    def layer_counters(self) -> Dict[str, float]:
        counts = dict(self._layer_delta)
        counts.update(rounds_active=0, rounds_background=0, rounds_aborted=0)
        for stack in self._stacks.values():
            for middleware in stack.middlewares.values():
                for result in middleware.resolution.history:
                    if result.started_at >= self._began_at:
                        counts[f"rounds_{result.kind}"] += 1
                        counts["rounds_aborted"] += result.aborted
        return counts

    # -------------------------------------------------------------- close
    def close(self, check: bool) -> List[Check]:
        checks = self.loop.run_until_complete(self._close(check))
        shutil.rmtree(self._rundir, ignore_errors=True)
        try:
            RUN_ROOT.rmdir()
        except OSError:
            pass  # another run's sockets are still there
        return checks

    async def _close(self, check: bool) -> List[Check]:
        loop = self.loop
        self._stopping = True
        # let the writes in flight land; their writers then see _stopping
        waiting = [entry[2] for entry in self._pending.values()]
        if waiting:
            await asyncio.wait(waiting, timeout=2.0)
        if check:
            # a write no peer set ever confirmed is a failed op
            self.attempted += len(self._pending)
            self.failed += len(self._pending)
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        checks: List[Check] = []
        if check:
            # the resolver may have been cancelled mid-round; that round
            # still runs to its end on the initiator
            deadline = loop.time() + self.GIVE_UP_AFTER
            while loop.time() < deadline and any(
                    middleware.resolution.resolving
                    for middleware in self._initiator.middlewares.values()):
                await asyncio.sleep(0.01)
            for object_id in self._objects:
                took = await self._demand(object_id, loop.time())
                if took is None:
                    checks.append(Check(f"converged:final-round:{object_id}",
                                        False, "closing round did not complete"))
            await asyncio.sleep(0.2)  # installs are one-way: let them land
            checks.extend(
                converged(object_id, {node: stack.store.replica(object_id)
                                      for node, stack in self._stacks.items()})
                for object_id in self._objects)
            frame_errors = sum(
                stack.node.transport.stats.drop_reasons.get("frame-error", 0)
                for stack in self._stacks.values())
            checks.append(Check("no-frame-errors", frame_errors == 0,
                                f"{frame_errors} frame-error drops"))
        # LiveTransport.stop() cancels its reader tasks; what the loop's
        # exception handler hears about is counted, not hidden
        previous = loop.get_exception_handler()
        loop.set_exception_handler(self._count_shutdown_error)
        try:
            for stack in self._stacks.values():
                stack.shutdown()
                await stack.node.transport.stop()
            await asyncio.sleep(0)  # let done-callbacks of cancelled tasks run
        finally:
            loop.set_exception_handler(previous)
        self._stacks = {}
        return checks

    def _count_shutdown_error(self, loop: asyncio.AbstractEventLoop,
                              context: Dict[str, Any]) -> None:
        self.shutdown_errors += 1
