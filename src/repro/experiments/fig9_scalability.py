"""Figure 9: scalability of active resolution — and of the node runtime.

The paper extrapolates the Table 2 measurement with Formula 2
(``Delay(n) = 0.468 ms + 104.747 ms · (n − 1)``) and plots the predicted cost
for top layers of up to ten writers, concluding that even ten simultaneous
writers keep the resolution below one second.

This harness does both things:

* it *measures* the active-resolution delay for top-layer sizes 2..N on the
  simulated deployment, and
* it *fits* the same linear model to the measurements
  (:func:`repro.analysis.formulas.fit_delay_model`) so the slope/intercept can
  be compared against the paper's coefficients and against Formula 3 for
  background resolution.

Beyond the paper's figure, the ``multiobject`` experiment sweeps the
*objects-per-node* axis the paper never measured: a fixed deployment (8 nodes
by default) hosts 1..256 concurrently written objects through the
:class:`~repro.core.deployment.DeploymentBuilder` / :class:`~repro.runtime
.NodeRuntime` path, recording wall-clock cost and simulator events processed
per sweep point.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.formulas import DelayModel, fit_delay_model, paper_delay_model
from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder
from repro.experiments.report import format_table
from repro.experiments.scaffold import start_object_writers
from repro.experiments.tab2_phases import (_build_whiteboard,
                                           _resolve_after_divergence)
from repro.farm import PointSpec


@dataclass
class ScalabilityResult:
    """Measured delay versus top-layer size plus the fitted linear model."""

    sizes: List[int]
    active_delays: List[float]
    background_delays: List[float]
    fitted: DelayModel
    paper_model: DelayModel

    def as_rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        for n, a, b in zip(self.sizes, self.active_delays, self.background_delays):
            rows.append([n, f"{a * 1e3:.1f} ms", f"{b * 1e3:.1f} ms",
                         f"{self.fitted.predict(n) * 1e3:.1f} ms",
                         f"{self.paper_model.predict(n) * 1e3:.1f} ms"])
        return rows


def run_scalability_point(*, size: int, num_nodes: int,
                          seed: int) -> Tuple[float, float]:
    """One Figure 9 grid point: (active delay, background delay) for a top
    layer of ``size`` writers."""
    deployment, app, writers = _build_whiteboard(num_nodes, size, seed)

    resolution = app.middleware(writers[0]).resolution
    active = _resolve_after_divergence(
        deployment, app, writers, resolution.start_active_resolution,
        "divergence before measurement", 10.0)
    if active is None:
        raise RuntimeError(f"active resolution aborted for top layer size {size}")
    background = _resolve_after_divergence(
        deployment, app, writers, resolution.start_background_resolution,
        "divergence before background round", 10.0)
    if background is None:
        raise RuntimeError(f"background resolution aborted for size {size}")
    return active.phase1_delay + active.phase2_delay, background.phase2_delay


def build_scalability_grid(*, max_top_layer: int = 10, num_nodes: int = 40,
                           seed: int = 19) -> List[PointSpec]:
    """Top-layer sizes 2..max as farm point specs (pre-farm seed formula)."""
    if max_top_layer < 2:
        raise ValueError("max_top_layer must be >= 2")
    return [PointSpec.build(
        run_scalability_point, labels=("fig9", f"top{size}"),
        size=size, num_nodes=max(num_nodes, size), seed=seed + size)
        for size in range(2, max_top_layer + 1)]


def fold_scalability(specs: Sequence[PointSpec],
                     delays: List[Tuple[float, float]]) -> ScalabilityResult:
    """The measured delays per size plus the linear model fitted to them."""
    sizes = [spec.kwargs["size"] for spec in specs]
    active = [a for a, _ in delays]
    return ScalabilityResult(
        sizes=sizes, active_delays=active,
        background_delays=[b for _, b in delays],
        fitted=fit_delay_model(list(zip(sizes, active))),
        paper_model=paper_delay_model())


def format_report(result: ScalabilityResult) -> str:
    table = format_table(
        ["top-layer size", "measured active", "measured background",
         "fitted model", "paper formula 2"],
        result.as_rows(), title="Figure 9 reproduction — resolution scalability")
    extra = (f"\nfitted: delay(n) = {result.fitted.phase1 * 1e3:.3f} ms + "
             f"{result.fitted.per_member * 1e3:.3f} ms × (n − 1)"
             f"\npaper:  delay(n) = 0.468 ms + 104.747 ms × (n − 1)")
    return table + extra


# --------------------------------------------------------------------------
# Multi-object scalability: many objects per node through the NodeRuntime.
# --------------------------------------------------------------------------

@dataclass
class MultiObjectResult:
    """Wall-clock and event cost of hosting many objects per deployment."""

    num_nodes: int
    writers_per_object: int
    duration: float
    object_counts: List[int]
    wall_clock_seconds: List[float]
    events_processed: List[int]
    writes_applied: List[int]

    def per_object_seconds(self) -> List[float]:
        return [w / max(c, 1) for w, c in
                zip(self.wall_clock_seconds, self.object_counts)]

    def as_rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        for count, wall, events, writes, per_obj in zip(
                self.object_counts, self.wall_clock_seconds,
                self.events_processed, self.writes_applied,
                self.per_object_seconds()):
            rows.append([count, f"{wall:.3f} s", f"{per_obj * 1e3:.2f} ms",
                         events, writes])
        return rows


def run_multiobject_point(*, num_objects: int, num_nodes: int = 8,
                          writers_per_object: int = 4,
                          write_period: float = 2.0, duration: float = 40.0,
                          seed: int = 11) -> Tuple[float, int, int]:
    """(wall-clock s, events processed, writes applied) for one sweep point.

    Every object is replicated on all ``num_nodes`` hosts and concurrently
    written by ``writers_per_object`` of them every ``write_period`` simulated
    seconds, exercising digest exchange and level evaluation — the per-event
    hot path the shared digest cache accelerates.
    """
    started = _time.perf_counter()
    deployment = DeploymentBuilder(num_nodes=num_nodes, seed=seed).build()
    # Hint level 0 keeps the workload purely in the detection path (no
    # automatic resolutions), so the sweep measures runtime overhead rather
    # than resolution-backoff randomness.
    config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                        background_period=None)
    for i in range(num_objects):
        object_id = f"obj{i:04d}"
        deployment.register_object(object_id, config, start_background=False)
        start_object_writers(
            deployment, object_id, i, writers_per_object=writers_per_object,
            write_period=write_period, offset=0.003 * (i % 32))
    deployment.run(until=duration)
    wall = _time.perf_counter() - started
    writes = sum(deployment.trace.count(f"writes.obj{i:04d}")
                 for i in range(num_objects))
    return wall, deployment.sim.events_processed, writes


def build_multiobject_grid(*, object_counts: Sequence[int] = (1, 4, 16, 64),
                           seed: int = 11, **point_kwargs) -> List[PointSpec]:
    """The objects-per-deployment axis (ascending) as farm point specs."""
    counts = sorted(set(int(c) for c in object_counts))
    if not counts or counts[0] < 1:
        raise ValueError("object_counts must contain positive integers")
    return [PointSpec.build(
        run_multiobject_point, labels=("multiobject", f"obj{count}"),
        num_objects=count, seed=seed, **point_kwargs)
        for count in counts]


def fold_multiobject(specs: Sequence[PointSpec],
                     points: List[Tuple[float, int, int]]) -> MultiObjectResult:
    """Wall clock, events and writes per object count, column-wise."""
    shared = specs[0].arguments()
    walls, events, writes = (list(column) for column in zip(*points))
    return MultiObjectResult(
        num_nodes=shared["num_nodes"], duration=shared["duration"],
        writers_per_object=min(shared["writers_per_object"],
                               shared["num_nodes"]),
        object_counts=[spec.kwargs["num_objects"] for spec in specs],
        wall_clock_seconds=walls, events_processed=events,
        writes_applied=writes)


def format_multiobject_report(result: MultiObjectResult) -> str:
    title = (f"Multi-object scalability — {result.num_nodes} nodes, "
             f"{result.writers_per_object} writers/object, "
             f"{result.duration:.0f} s simulated")
    return format_table(
        ["objects", "wall clock", "per object", "events", "writes"],
        result.as_rows(), title=title)
