"""The three simulator workloads of the ledger.

Each class states its shape as constants and builds through the repo's own
public entry points (``DeploymentBuilder``, ``build_world``); nothing here
reaches into the program beyond reading counters.  Why each exists, and
which layers it loads or bypasses, is in ``README.md`` — the one-line
``why`` strings below are what ``BENCHMARK.json`` records.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder, IdeaDeployment
from repro.overlay.temperature import TemperatureConfig
from repro.overlay.two_layer import OverlayConfig
from repro.shard.state import collect_shard_state, state_fingerprint
from repro.transport.timers import PeriodicTimer
from repro.workloads import ClientPopulation, ConstantRate, OpMix, ZipfPopularity
from repro.worlds.compile import build_world

from benchmarks.ledger.harness import Check, Workload, converged

WORLD_PATH = Path(__file__).resolve().parent / "worlds" / "wan-faults.json"

#: simulated seconds a closing drain runs: an in-flight round may still wait
#: out one 10 s collect timeout per member that was unreachable when visited
DRAIN_S = 40.0


# ------------------------------------------------------------- shared helpers

def _sim_counters(deployment: IdeaDeployment) -> Dict[str, Any]:
    """Everything a seeded replay must reproduce exactly."""
    stats = deployment.network.stats
    state = collect_shard_state(deployment)
    counters: Dict[str, Any] = {
        "events": deployment.sim.events_processed,
        "sim_now": deployment.sim.now,
        "writes_applied": state["writes"],
        "sent": dict(sorted(stats.sent.items())),
        "delivered": sum(stats.delivered.values()),
        "drop_reasons": dict(sorted(stats.drop_reasons.items())),
        "entries_folded": _entries_folded(deployment),
        "retained_entries": deployment.retained_log_entries(),
        "state_hash": state_fingerprint(state["items"]),
        # drifting per-node clocks: seed-dependent even where every count
        # is fixed by periodic writers (sim-detect)
        "local_clock_sum": sum(node.local_time()
                               for node in deployment.nodes.values()),
    }
    driver = deployment.traffic
    if driver is not None:
        counters.update({
            "ops": driver.ops_issued, "reads": driver.reads_issued,
            "writes_issued": driver.writes_issued,
            "writes_blocked": driver.writes_blocked,
            "skipped_down": driver.skipped_down})
    return counters


def _entries_folded(deployment: IdeaDeployment) -> int:
    return sum(mw.replica.truncation_stats.entries_folded
               for managed in deployment.objects.values()
               for mw in managed.middlewares.values())


def _layer_snapshot(deployment: IdeaDeployment) -> Dict[str, float]:
    """Absolute per-layer counts; a leg reports end − begin of these."""
    stats = deployment.network.stats
    snap: Dict[str, float] = {
        "events": deployment.sim.events_processed,
        "sent": sum(stats.sent.values()),
        "resolution_msgs": stats.total_sent("idea.resolution"),
        "entries_folded": _entries_folded(deployment),
        "cache_hits": 0, "cache_misses": 0,
    }
    for reason, count in stats.drop_reasons.items():
        snap[f"drop:{reason}"] = count
    for runtime in deployment.runtimes.values():
        if runtime.digests is not None:
            snap["cache_hits"] += runtime.digests.hits
            snap["cache_misses"] += runtime.digests.misses
    return snap


def _round_counts(deployment: IdeaDeployment, since: float) -> Dict[str, float]:
    """Resolution rounds begun at or after ``since``, from every manager."""
    rounds = {"rounds_active": 0, "rounds_background": 0, "rounds_aborted": 0}
    for managed in deployment.objects.values():
        for mw in managed.middlewares.values():
            for result in mw.resolution.history:
                if result.started_at < since:
                    continue
                rounds[f"rounds_{result.kind}"] += 1
                if result.aborted:
                    rounds["rounds_aborted"] += 1
    return rounds


def _conservation(deployment: IdeaDeployment) -> Check:
    """``sent = delivered + Σ drop_reasons`` once nothing is in flight."""
    stats = deployment.network.stats
    sent = sum(stats.sent.values())
    delivered = sum(stats.delivered.values())
    reasons = sum(stats.drop_reasons.values())
    dropped = sum(stats.dropped.values())
    ok = sent == delivered + reasons and dropped == reasons
    return Check("message-ledger-conserved", ok,
                 f"sent={sent} delivered={delivered} drop_reasons={reasons} "
                 f"dropped={dropped}")


def _converged(deployment: IdeaDeployment, object_id: str, members) -> Check:
    """Convergence among the live members of a closing round."""
    return converged(object_id, {
        node: deployment.stores[node].replica(object_id)
        for node in members if deployment.nodes[node].alive})


class _SimWorkload(Workload):
    """Mark/delta bookkeeping common to the simulator workloads."""

    deployment: Optional[IdeaDeployment] = None
    probe: Any = None            # the installed DetectProbe (set by the ledger)
    _measuring = False

    def begin_spans(self) -> None:
        d = self.deployment
        self._measuring = True
        self._began_at = d.sim.now
        self._layer_at_begin = _layer_snapshot(d)
        self.probe.measure_from = d.sim.now

    def sample(self) -> int:
        self.probe.flush(self.deployment.sim.now)
        return self.deployment.retained_log_entries()

    def end_spans(self) -> None:
        self._measuring = False
        begin = self._layer_at_begin
        self._layer_delta = {key: value - begin.get(key, 0) for key, value
                             in _layer_snapshot(self.deployment).items()}
        self.messages += self._layer_delta["sent"]

    def counters(self) -> Dict[str, Any]:
        return _sim_counters(self.deployment)

    def layer_counters(self) -> Dict[str, float]:
        d = self.deployment
        counts = dict(self._layer_delta)
        counts.update(_round_counts(d, self._began_at))
        if d.traffic is not None:
            counts["peak_pending"] = d.traffic.peak_pending
        return counts

    def close(self, check: bool) -> List[Check]:
        checks = self._closing_checks() if check else []
        probe = self.probe
        probe.flush()
        self.detect_ms.extend(latency * 1e3 for latency in probe.samples)
        probe.samples.clear()
        probe.reset()
        self.deployment = None
        return checks

    def _closing_checks(self) -> List[Check]:
        raise NotImplementedError


# ------------------------------------------------------- driver-based workloads

class _DriverWorkload(_SimWorkload):
    """Open-loop ``TrafficDriver`` load issued in steps of ``step_ops`` ops."""

    def make_deployment(self, seed: int) -> IdeaDeployment:
        raise NotImplementedError

    def build(self, leg: int) -> None:
        self.deployment = self.make_deployment(self.leg_seed(leg))
        self._target_ops = 0

    def step(self) -> Tuple[int, int]:
        d = self.deployment
        driver, sim, chunk = d.traffic, d.sim, self.sizes["chunk_s"]
        ops = driver.ops_issued
        lost = driver.writes_blocked + driver.skipped_down
        # absolute targets: a step that overshoots shortens the next one
        self._target_ops += self.sizes["step_ops"]
        while driver.ops_issued < self._target_ops:
            d.run(until=sim.now + chunk)
        attempted = driver.ops_issued - ops
        refused = driver.writes_blocked + driver.skipped_down - lost
        if self._measuring:
            self.attempted += attempted
            self.refused += refused
        return attempted, refused

    def end_spans(self) -> None:
        super().end_spans()
        self.resolve_ms.extend(
            result.total_delay * 1e3
            for managed in self.deployment.objects.values()
            for result in managed.resolutions
            if result.finished_at >= self._began_at)

    def _closing_checks(self) -> List[Check]:
        """Heal, drain, one background round per object, then compare."""
        d = self.deployment
        sim, network, driver = d.sim, d.network, d.traffic
        checks = [
            Check("op-accounting-closes",
                  driver.reads_issued + driver.writes_issued
                  + driver.skipped_down == driver.ops_issued
                  and driver.writes_applied + driver.writes_blocked
                  == driver.writes_issued,
                  json.dumps(driver.counters(), sort_keys=True))]
        driver.stop()
        injector = driver.injector
        if injector is not None:
            # every armed fault (and its heal / recover) must have fired
            # before the faults are undone, or it would strike mid-check
            deadline = sim.now + 10 * DRAIN_S
            while len(injector.applied) < len(injector.plan) and sim.now < deadline:
                d.run(until=sim.now + 5.0)
        network.heal()
        network.set_loss_probability(0.0)
        for src in d.node_ids:
            for dst in d.node_ids:
                if network.link_loss(src, dst):
                    network.set_loss_probability(0.0, src=src, dst=dst)
        for node_id in d.node_ids:
            d.recover_node(node_id)
        for managed in d.objects.values():
            if managed.background_cancel is not None:
                managed.background_cancel()
        d.run(until=sim.now + DRAIN_S)
        for object_id in sorted(d.objects):
            process = d.run_background_round(object_id)
            deadline = sim.now + 10 * DRAIN_S
            while (process is not None and not process.finished
                   and sim.now < deadline):
                d.run(until=sim.now + 1.0)
            d.run(until=sim.now + 2.0)  # installs are one-way: let them land
            result = process.result if process is not None else None
            if result is None or result.aborted:
                checks.append(Check(f"converged:final-round:{object_id}", False,
                                    f"closing round did not complete: {result}"))
            else:
                checks.append(_converged(d, object_id, result.members))
        if d.ransub is not None:
            d.ransub.stop()
        if d.gossip is not None:
            d.gossip.stop()
        d.run(until=sim.now + 5.0)
        checks.append(_conservation(d))
        return checks


class SimLongrun(_DriverWorkload):
    """``BENCH_longrun``'s shape verbatim (see ``benchmarks/bench_longrun.py``)."""

    name = "sim-longrun"
    why = ("read path: driver, middleware.read, memoised detect, digest "
           "cache and engine dispatch do most of the work; state stays "
           "bounded by truncation (BENCH_longrun's shape)")

    NODES = 16
    OBJECTS = 4
    CLIENTS = 64
    RATE = 40.0                 # ops/s per client, simulated clock
    ZIPF = 0.5
    READS = 0.9
    BG_PERIOD = 2.0
    TRUNCATE_EVERY = 2.0
    TRUNCATE_WINDOW = 5.0
    OUTCOME_HISTORY = 256

    def make_deployment(self, seed: int) -> IdeaDeployment:
        config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                            background_period=self.BG_PERIOD,
                            outcome_history=self.OUTCOME_HISTORY)
        overlay = OverlayConfig(temperature=TemperatureConfig(
            half_life=600.0, hot_threshold=0.5, max_top_size=self.NODES,
            min_top_size=1))
        builder = DeploymentBuilder(num_nodes=self.NODES, seed=seed,
                                    overlay_config=overlay)
        for i in range(self.OBJECTS):
            builder.add_object(f"obj{i}", config, start_background=True)
        population = ClientPopulation(
            name="web", num_clients=self.CLIENTS,
            popularity=ZipfPopularity(self.OBJECTS, self.ZIPF),
            mix=OpMix(self.READS), schedule=ConstantRate(self.RATE))
        builder.add_traffic([population],
                            truncate_every=self.TRUNCATE_EVERY,
                            truncate_window=self.TRUNCATE_WINDOW,
                            truncate_keep_content=False)
        return builder.start_overlay_services().build()


class SimWanFaults(_DriverWorkload):
    """The benchmark-owned world ``worlds/wan-faults.json`` under faults."""

    name = "sim-wan-faults"
    why = ("slow path: per-link loss on every send, partitions, down nodes "
           "and RPC timeouts; the only sim workload where resolution, merge, "
           "install and crash/recover orchestration dominate")
    build_metric = "worlds.compile.build_s"

    #: offered load of the document's populations (ops per simulated second);
    #: only used to drop fault entries that start beyond the run's horizon
    OFFERED_OPS_PER_S = 144.0

    def make_deployment(self, seed: int) -> IdeaDeployment:
        doc = json.loads(WORLD_PATH.read_text(encoding="utf-8"))
        sizes = self.sizes
        steps = (sizes["warmup_steps"]
                 + sizes["spans_per_leg"] * sizes["steps_per_span"])
        horizon = steps * sizes["step_ops"] / self.OFFERED_OPS_PER_S
        doc["faults"] = _faults_within(doc["faults"], horizon)
        return build_world(doc, seed, duration=1e9)


def _faults_within(faults: List[Dict[str, Any]],
                   horizon: float) -> List[Dict[str, Any]]:
    """The document's fault entries that begin before ``horizon``.

    The world lists its fault cycles out to a horizon longer than any run;
    a run arms the ones it will reach.
    """
    return [fault for fault in faults if fault["at"] < horizon]


# ------------------------------------------------------------------ sim-detect

class SimDetect(_SimWorkload):
    """``BENCH_hotpath``'s 8 × 8 ablation, as fresh deployments.

    Same construction as ``experiments.fig9_scalability
    .run_multiobject_point`` (which runs to completion and cannot be cut
    into spans): hint 0, no background rounds, 4 periodic writers per
    object.  A span is ``span_s`` simulated seconds, i.e. an exact number of
    timer periods — equal work by construction.
    """

    name = "sim-detect"
    why = ("write path: announce_write -> send_many -> deliver -> "
           "ingest_digest -> current_level, ~4 events per write, with driver, "
           "reads, truncation and resolution bypassed (BENCH_hotpath's 8x8)")

    NODES = 8
    OBJECTS = 8
    WRITERS = 4
    WRITE_PERIOD = 0.4

    def build(self, leg: int) -> None:
        d = self.deployment = DeploymentBuilder(
            num_nodes=self.NODES, seed=self.leg_seed(leg)).build()
        config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                            background_period=None)
        self._timers: List[PeriodicTimer] = []
        self._object_ids = [f"obj{i:04d}" for i in range(self.OBJECTS)]
        node_ids = d.node_ids
        for i, object_id in enumerate(self._object_ids):
            d.register_object(object_id, config, start_background=False)
            for w in range(self.WRITERS):
                middleware = d.middleware(object_id,
                                          node_ids[(i + w) % len(node_ids)])
                timer = PeriodicTimer(
                    d.sim, (lambda m=middleware: m.write(metadata_delta=1.0)),
                    period=self.WRITE_PERIOD, label=f"wl:{object_id}")
                self._timers.append(timer)
                offset = (0.05 + self.WRITE_PERIOD * (w / self.WRITERS)
                          + 0.003 * (i % 32))
                d.sim.call_at(offset, timer.start)
        self._steps = 0

    def _writes(self) -> int:
        count = self.deployment.trace.count
        return sum(count(f"writes.{object_id}")
                   for object_id in self._object_ids)

    def step(self) -> Tuple[int, int]:
        before = self._writes()
        self._steps += 1
        self.deployment.run(until=self._steps * self.sizes["step_s"])
        writes = self._writes() - before
        if self._measuring:
            self.attempted += writes
        return writes, 0

    def _closing_checks(self) -> List[Check]:
        """One demanded resolution per object over the whole untruncated log.

        These rounds are the workload's only resolutions, so they are also
        where its ``resolve_ms_*`` come from.
        """
        d = self.deployment
        sim = d.sim
        for timer in self._timers:
            timer.cancel()
        d.run(until=sim.now + 2.0)
        began = sim.now
        for i, object_id in enumerate(self._object_ids):
            d.middleware(object_id, d.node_ids[i % len(d.node_ids)]
                         ).demand_active_resolution()
        d.run(until=sim.now + DRAIN_S)
        checks: List[Check] = []
        for object_id in self._object_ids:
            rounds = [r for r in d.objects[object_id].resolutions
                      if r.started_at >= began]
            if len(rounds) != 1:
                checks.append(Check(f"converged:final-round:{object_id}", False,
                                    f"{len(rounds)} closing rounds completed"))
                continue
            self.resolve_ms.append(rounds[0].total_delay * 1e3)
            checks.append(_converged(d, object_id, rounds[0].members))
        checks.append(_conservation(d))
        return checks
