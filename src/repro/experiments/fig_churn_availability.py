"""Churn availability: detection and resolution under failures (beyond paper).

The paper evaluates IDEA on a static Planet-Lab slice; every figure assumes
the membership fixed for the whole run.  Wide-area deployments do not work
like that, and the reproduction's failure model (crash-stop nodes with
recovery, partition-aware and loss-aware sends — see DESIGN.md "Failure
model & scenarios") lets us ask the question the paper could not: **how much
detection latency and resolution success survive churn?**

The scenario, per sweep point:

* ``num_nodes`` hosts all replicate ``num_objects`` shared objects;
  ``writers_per_object`` of them write every ``write_period`` seconds
  (writers skip rounds while crashed);
* mid-run, ``kill_fraction`` of the nodes crash-stop (staggered), and all of
  them recover later — the ISSUE's acceptance scenario;
* the network drops every message independently with probability
  ``loss_probability`` (swept 0–5 %).

Reported metrics:

* **detection latency** — for every failed ``detect()`` evaluation at a node
  other than the last writer, the time since that object was last written:
  how fast divergence is noticed remotely;
* **resolution success** — fraction of non-aborted resolution rounds, plus
  background rounds completed vs started;
* message-drop accounting by reason (loss / crashed endpoints / in-flight
  departures), so the fault injection is visible in the network stats.

Everything is deterministic: the same arguments replay the identical event
sequence, which :func:`fingerprint` pins down and the scenario tests gate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.bounds import real
from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder, IdeaDeployment
from repro.experiments.report import format_table
from repro.experiments.scaffold import start_object_writers
from repro.farm import PointSpec
from repro.runtime.events import DetectionEvaluated, WriteRecorded
from repro.scenarios import FaultInjector, FaultPlan


@dataclass
class ChurnPointResult:
    """One sweep point: N nodes, one loss rate, kill/recover mid-run."""

    num_nodes: int
    loss_probability: float
    kill_fraction: float
    duration: float
    seed: int
    # --- workload / substrate
    writes_applied: int
    events_processed: int
    final_alive: int
    crashes: int
    recoveries: int
    # --- detection under churn
    detection_events: int
    detection_failures: int
    remote_detection_latencies: List[float] = field(repr=False, default_factory=list)
    # --- resolution under churn
    resolutions_total: int = 0
    resolutions_succeeded: int = 0
    background_started: int = 0
    background_completed: int = 0
    # --- network accounting
    dropped_by_reason: Dict[str, int] = field(default_factory=dict)
    messages_sent: int = 0
    #: wall-clock seconds this point took (machine-dependent; excluded from
    #: the replay fingerprint)
    wall_seconds: float = 0.0

    @property
    def mean_detection_latency(self) -> float:
        lat = self.remote_detection_latencies
        return float(np.mean(lat)) if lat else float("nan")

    @property
    def p95_detection_latency(self) -> float:
        lat = self.remote_detection_latencies
        return float(np.percentile(lat, 95)) if lat else float("nan")

    @property
    def resolution_success_rate(self) -> float:
        if self.resolutions_total == 0:
            return float("nan")
        return self.resolutions_succeeded / self.resolutions_total


@dataclass
class ChurnSweepResult:
    """The full sweep over deployment sizes and loss rates."""

    points: List[ChurnPointResult]

    def as_rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        for p in self.points:
            rows.append([
                p.num_nodes, f"{p.loss_probability:.0%}",
                f"{p.crashes}/{p.recoveries}",
                p.writes_applied,
                f"{p.mean_detection_latency * 1e3:.0f} ms",
                f"{p.p95_detection_latency * 1e3:.0f} ms",
                f"{p.resolution_success_rate:.0%}" if p.resolutions_total else "—",
                f"{p.background_completed}/{p.background_started}",
            ])
        return rows


class _ChurnProbe:
    """Bus subscriber collecting the per-point detection/latency metrics."""

    def __init__(self, deployment: IdeaDeployment) -> None:
        self._last_write: Dict[str, tuple] = {}  # object_id -> (time, writer)
        self.detection_events = 0
        self.detection_failures = 0
        self.remote_latencies: List[float] = []
        deployment.bus.subscribe(WriteRecorded, self._on_write)
        deployment.bus.subscribe(DetectionEvaluated, self._on_detection)

    def _on_write(self, event: WriteRecorded) -> None:
        self._last_write[event.object_id] = (event.time, event.node_id)

    def _on_detection(self, event: DetectionEvaluated) -> None:
        self.detection_events += 1
        if event.success:
            return
        self.detection_failures += 1
        last = self._last_write.get(event.object_id)
        if last is None:
            return
        last_time, last_writer = last
        if event.node_id != last_writer:
            # A node other than the most recent writer noticed divergence:
            # this is the remote-detection latency the top layer exists for.
            self.remote_latencies.append(max(0.0, event.time - last_time))


def run_churn_point(*, num_nodes: int = 8, loss_probability: float = 0.0,
                    kill_fraction: float = 0.25, duration: float = 120.0,
                    num_objects: int = 2, writers_per_object: int = 4,
                    write_period: float = 2.0, background_period: float = 10.0,
                    hint_level: float = 0.8, seed: int = 29,
                    use_gossip: bool = True) -> ChurnPointResult:
    """Run one churn scenario point and harvest its metrics."""
    real("loss_probability", loss_probability, ge=0, lt=1)
    wall_start = time.perf_counter()
    deployment = DeploymentBuilder(
        num_nodes=num_nodes, seed=seed, use_gossip=use_gossip,
        loss_probability=loss_probability).start_overlay_services().build()
    probe = _ChurnProbe(deployment)

    config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=hint_level,
                        background_period=background_period)
    for i in range(num_objects):
        object_id = f"obj{i:02d}"
        deployment.register_object(object_id, config)
        start_object_writers(
            deployment, object_id, i, writers_per_object=writers_per_object,
            write_period=write_period, offset=0.01 * i)

    # The acceptance scenario: kill `kill_fraction` of the nodes about a
    # third of the way in, recover every one of them in the final third.
    plan = FaultPlan.kill_and_recover(
        deployment.node_ids, fraction=kill_fraction,
        crash_at=duration * 0.35, recover_at=duration * 0.65,
        stagger=min(1.0, write_period / 2))
    injector = FaultInjector(deployment, plan).arm()

    deployment.run(until=duration)

    resolutions = [r for managed in deployment.objects.values()
                   for r in managed.resolutions]
    aborted = sum(1 for managed in deployment.objects.values()
                  for m in managed.middlewares.values()
                  for r in m.resolution.history if r.aborted)
    total_rounds = len(resolutions) + aborted
    stats = deployment.network.stats
    return ChurnPointResult(
        num_nodes=num_nodes, loss_probability=loss_probability,
        kill_fraction=kill_fraction, duration=duration, seed=seed,
        writes_applied=sum(deployment.trace.count(f"writes.obj{i:02d}")
                           for i in range(num_objects)),
        events_processed=deployment.sim.events_processed,
        final_alive=len(deployment.alive_node_ids()),
        crashes=injector.crashes_applied,
        recoveries=injector.recoveries_applied,
        detection_events=probe.detection_events,
        detection_failures=probe.detection_failures,
        remote_detection_latencies=probe.remote_latencies,
        resolutions_total=total_rounds,
        resolutions_succeeded=len(resolutions),
        background_started=sum(m.background_rounds_started
                               for m in deployment.objects.values()),
        background_completed=sum(m.background_rounds
                                 for m in deployment.objects.values()),
        dropped_by_reason=dict(stats.drop_reasons),
        messages_sent=int(sum(stats.sent.values())),
        wall_seconds=time.perf_counter() - wall_start,
    )


def fingerprint(point: ChurnPointResult) -> Dict[str, object]:
    """The replay-sensitive subset of a point (for determinism gating)."""
    return {
        "events_processed": point.events_processed,
        "writes_applied": point.writes_applied,
        "detection_events": point.detection_events,
        "detection_failures": point.detection_failures,
        "resolutions_total": point.resolutions_total,
        "resolutions_succeeded": point.resolutions_succeeded,
        "messages_sent": point.messages_sent,
        "dropped_by_reason": dict(point.dropped_by_reason),
        "latency_checksum": round(float(np.sum(point.remote_detection_latencies)), 9),
    }


def build_churn_grid(*, node_counts: Sequence[int] = (8, 16, 32, 64),
                     loss_probabilities: Sequence[float] = (0.0, 0.01, 0.05),
                     seed: int = 29, **point_kwargs) -> List[PointSpec]:
    """The size × loss grid as farm point specs (aggregation order).

    Per-point seeds keep the pre-farm formula (``seed + num_nodes``) so the
    8-node points pinned in ``tests/test_scenarios.py`` replay bit-identically.
    """
    return [PointSpec.build(
        run_churn_point, labels=("churn", f"n{num_nodes}", f"loss{loss:g}"),
        num_nodes=num_nodes, loss_probability=loss, seed=seed + num_nodes,
        **point_kwargs)
        for num_nodes in node_counts for loss in loss_probabilities]


def format_churn_report(result: ChurnSweepResult) -> str:
    table = format_table(
        ["nodes", "loss", "crash/recover", "writes", "mean detect",
         "p95 detect", "resolution ok", "bg done/started"],
        result.as_rows(),
        title="Churn availability — detection & resolution under failures")
    total_drops = sum(sum(p.dropped_by_reason.values()) for p in result.points)
    return table + (f"\n{len(result.points)} points, "
                    f"{total_drops} messages dropped across the sweep "
                    f"(loss + crashed endpoints + in-flight departures)")
