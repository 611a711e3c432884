"""Workload sensitivity: detection accuracy and resolution load vs traffic shape.

The paper evaluates IDEA under exactly one traffic shape — every writer
updates uniformly every 5 seconds (Section 6).  The streaming workload
subsystem lets us ask how the *detection* machinery holds up when the
traffic looks like the web: skewed object popularity (Zipf), read-dominated
mixes, and flash crowds.  This experiment sweeps

* **Zipf skew** — 0 (uniform) to 1.2 (one object absorbs most writes).
  Skew concentrates divergence on the hot object and its top layer;
* **read mix** — 50 % to 99 % reads.  Reads consume consistency levels;
  writes create divergence and drive digest traffic;
* **traffic shape** — steady load vs a mid-run flash crowd at 8× the base
  rate.

Reported per point:

* **detection accuracy** — 1 − mean |perceived − ground-truth| level,
  sampled every ``sample_period`` seconds over probe nodes × objects.  The
  perceived level is what the middleware tells users; the ground truth is
  computed from the actual replica vectors (:func:`~repro.core.detection
  .evaluate_group`);
* **resolution load** — active resolutions triggered, rounds completed, and
  IDEA resolution/detection messages: what keeping the levels honest costs;
* traffic outcomes from the :class:`~repro.workloads.metrics
  .TrafficMetrics` collector — mean level served, mean read staleness.

Deterministic: :func:`fingerprint` pins the replay-sensitive counters, and
the regression tests replay a point and require identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder
from repro.experiments.report import format_table
from repro.farm import PointSpec
from repro.transport.timers import PeriodicTimer
from repro.workloads import (
    ClientPopulation,
    ConstantRate,
    FlashCrowdRate,
    OpMix,
    ZipfPopularity,
)

#: traffic shapes understood by :func:`run_workload_point`
SHAPES = ("constant", "flash")


@dataclass
class WorkloadPointResult:
    """One sweep point: a (skew, read mix, shape) cell."""

    zipf_skew: float
    read_fraction: float
    shape: str
    num_nodes: int
    num_objects: int
    num_clients: int
    duration: float
    seed: int
    # --- traffic outcome
    ops_issued: int
    reads_issued: int
    writes_applied: int
    writes_blocked: int
    events_processed: int
    mean_level: float
    mean_read_staleness: float
    # --- detection accuracy
    accuracy_samples: List[float] = field(repr=False, default_factory=list)
    # --- resolution load
    resolutions_triggered: int = 0
    resolutions_completed: int = 0
    resolution_messages: int = 0
    detection_messages: int = 0

    @property
    def detection_accuracy(self) -> float:
        """1 − mean absolute error between perceived and true levels."""
        if not self.accuracy_samples:
            return float("nan")
        return 1.0 - float(np.mean(self.accuracy_samples))

    @property
    def worst_accuracy_sample(self) -> float:
        if not self.accuracy_samples:
            return float("nan")
        return 1.0 - float(np.max(self.accuracy_samples))

    def as_dict(self) -> Dict[str, object]:
        return {
            "zipf_skew": self.zipf_skew,
            "read_fraction": self.read_fraction,
            "shape": self.shape,
            "num_nodes": self.num_nodes,
            "num_objects": self.num_objects,
            "num_clients": self.num_clients,
            "duration_simulated_s": self.duration,
            "seed": self.seed,
            "ops_issued": self.ops_issued,
            "reads_issued": self.reads_issued,
            "writes_applied": self.writes_applied,
            "writes_blocked": self.writes_blocked,
            "events_processed": self.events_processed,
            "mean_level": self.mean_level,
            "mean_read_staleness_s": self.mean_read_staleness,
            "detection_accuracy": self.detection_accuracy,
            "worst_accuracy_sample": self.worst_accuracy_sample,
            "resolutions_triggered": self.resolutions_triggered,
            "resolutions_completed": self.resolutions_completed,
            "resolution_messages": self.resolution_messages,
            "detection_messages": self.detection_messages,
        }


@dataclass
class WorkloadSweepResult:
    points: List[WorkloadPointResult]

    def as_rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        for p in self.points:
            rows.append([
                f"{p.zipf_skew:g}", f"{p.read_fraction:.0%}", p.shape,
                p.ops_issued, p.writes_applied,
                f"{p.detection_accuracy:.1%}",
                p.resolutions_triggered, p.resolutions_completed,
                p.resolution_messages,
                f"{p.mean_read_staleness * 1e3:.0f} ms",
            ])
        return rows


def _make_schedule(shape: str, rate: float, duration: float):
    if shape == "constant":
        return ConstantRate(rate)
    if shape == "flash":
        return FlashCrowdRate(rate, 8.0 * rate, at=duration * 0.4,
                              ramp=duration * 0.05, hold=duration * 0.1)
    raise ValueError(f"unknown traffic shape {shape!r} (use one of {SHAPES})")


def run_workload_point(*, zipf_skew: float = 0.99, read_fraction: float = 0.9,
                       shape: str = "constant", num_nodes: int = 16,
                       num_objects: int = 8, num_clients: int = 24,
                       rate: float = 4.0, duration: float = 40.0,
                       hint_level: float = 0.75, sample_period: float = 5.0,
                       probe_nodes: int = 4, probe_objects: int = 2,
                       seed: int = 23) -> WorkloadPointResult:
    """Run one (skew, mix, shape) cell and harvest its metrics."""
    config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=hint_level,
                        background_period=None)
    builder = DeploymentBuilder(num_nodes=num_nodes, seed=seed)
    object_ids = [f"obj{i:02d}" for i in range(num_objects)]
    for object_id in object_ids:
        builder.add_object(object_id, config, start_background=False)
    population = ClientPopulation(
        name="clients", num_clients=num_clients,
        popularity=ZipfPopularity(num_objects, zipf_skew),
        mix=OpMix(read_fraction),
        schedule=_make_schedule(shape, rate, duration))
    builder.add_traffic([population], duration=duration, collect_metrics=True)
    deployment = builder.start_overlay_services().build()
    driver = deployment.traffic

    # Accuracy probe: every sample_period, compare the level the middleware
    # *perceives* with the ground truth computed from the replica vectors.
    accuracy_samples: List[float] = []
    probes = [(object_ids[i], deployment.node_ids[:probe_nodes])
              for i in range(min(probe_objects, num_objects))]

    def sample_accuracy() -> None:
        for object_id, nodes in probes:
            perceived = deployment.perceived_levels(object_id, nodes)
            truth = deployment.ground_truth_levels(object_id, nodes)
            for node in nodes:
                accuracy_samples.append(abs(perceived[node] - truth[node]))

    probe_timer = PeriodicTimer(deployment.sim, sample_accuracy,
                                period=sample_period, label="probe:accuracy")
    deployment.sim.call_at(sample_period * 0.5, probe_timer.start)

    driver.run()
    probe_timer.cancel()

    metrics = driver.metrics
    resolutions_triggered = sum(
        m.resolutions_triggered
        for managed in deployment.objects.values()
        for m in managed.middlewares.values())
    resolutions_completed = sum(
        1 for managed in deployment.objects.values()
        for r in managed.resolutions if not r.aborted)
    return WorkloadPointResult(
        zipf_skew=zipf_skew, read_fraction=read_fraction, shape=shape,
        num_nodes=num_nodes, num_objects=num_objects,
        num_clients=num_clients, duration=duration, seed=seed,
        ops_issued=driver.ops_issued,
        reads_issued=driver.reads_issued,
        writes_applied=driver.writes_applied,
        writes_blocked=driver.writes_blocked,
        events_processed=deployment.sim.events_processed,
        mean_level=metrics.mean_level,
        mean_read_staleness=metrics.mean_read_staleness,
        accuracy_samples=accuracy_samples,
        resolutions_triggered=resolutions_triggered,
        resolutions_completed=resolutions_completed,
        resolution_messages=deployment.resolution_messages(),
        detection_messages=deployment.detection_messages(),
    )


def fingerprint(point: WorkloadPointResult) -> Dict[str, object]:
    """The replay-sensitive subset of a point (for determinism gating)."""
    return {
        "ops_issued": point.ops_issued,
        "reads_issued": point.reads_issued,
        "writes_applied": point.writes_applied,
        "writes_blocked": point.writes_blocked,
        "events_processed": point.events_processed,
        "resolutions_triggered": point.resolutions_triggered,
        "resolutions_completed": point.resolutions_completed,
        "resolution_messages": point.resolution_messages,
        "detection_messages": point.detection_messages,
        "accuracy_checksum": round(float(np.sum(point.accuracy_samples)), 9),
    }


def build_workload_grid(*, zipf_skews: Sequence[float] = (0.0, 0.99, 1.2),
                        read_fractions: Sequence[float] = (0.5, 0.9, 0.99),
                        shapes: Sequence[str] = SHAPES, seed: int = 23,
                        **point_kwargs) -> List[PointSpec]:
    """The skew × mix × shape grid as farm point specs.

    Every cell keeps the sweep's base seed (the pre-farm behaviour), so a
    farm run replays the committed traces bit-identically.
    """
    return [PointSpec.build(
        run_workload_point,
        labels=("workload", shape, f"zipf{skew:g}", f"reads{read_fraction:g}"),
        zipf_skew=skew, read_fraction=read_fraction, shape=shape, seed=seed,
        **point_kwargs)
        for shape in shapes for skew in zipf_skews
        for read_fraction in read_fractions]


def format_workload_report(result: WorkloadSweepResult) -> str:
    table = format_table(
        ["zipf", "reads", "shape", "ops", "writes", "accuracy",
         "res trig", "res done", "res msgs", "staleness"],
        result.as_rows(),
        title="Workload sensitivity — detection accuracy & resolution load")
    total_ops = sum(p.ops_issued for p in result.points)
    return table + f"\n{len(result.points)} points, {total_ops} client ops total"
