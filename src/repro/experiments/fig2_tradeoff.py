"""Figure 2: the detection-speed versus overhead trade-off.

Figure 2 of the paper is conceptual — it places optimistic consistency
control (slow detection, tiny overhead), IDEA (fast detection, small
overhead) and strong consistency (immediate "detection" by prevention, large
overhead and write latency) on a trade-off curve.  This harness makes the
figure quantitative: it runs the same conflicting-update workload over

* Bayou-style optimistic anti-entropy,
* TACT-style bounded divergence,
* IDEA (hint-based, so detection and resolution are driven by the hint), and
* primary-copy strong consistency,

and reports, for each protocol, how long an update takes to be known
system-wide, the synchronous latency the writer pays, and the number of
protocol messages per update.  The expected ordering (the ``fig2`` claims
in ``tests/test_experiments.py``) is exactly the paper's: optimistic is cheapest and slowest to
converge, strong is fastest to converge but pays the most per update and
blocks writers, IDEA sits in between on cost while converging far faster than
optimistic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.apps.whiteboard import WhiteboardApp, default_whiteboard_config
from repro.baselines.optimistic import OptimisticAntiEntropy
from repro.baselines.strong import StrongConsistencyPrimary
from repro.baselines.tact import TactBoundedConsistency
from repro.core.config import AdaptationMode
from repro.core.deployment import DeploymentBuilder
from repro.experiments.report import format_table
from repro.experiments.scaffold import schedule_warmup
from repro.farm import PointSpec
from repro.workloads.legacy import UniformWorkload


@dataclass
class ProtocolRow:
    """One protocol's measurements on the shared workload."""

    name: str
    convergence_delay: float          # mean time for an update to be known everywhere
    writer_latency: float             # mean synchronous latency paid by the writer
    messages_per_update: float
    converged: bool


@dataclass
class TradeoffResult:
    """Figure 2 reproduction: one row per protocol."""

    rows: List[ProtocolRow]
    updates_per_writer: int
    num_nodes: int

    def row(self, name: str) -> ProtocolRow:
        for row in self.rows:
            if row.name == name:
                return row
        raise KeyError(name)

    def as_rows(self) -> List[List[object]]:
        rows = []
        for r in self.rows:
            delay = ("not converged" if r.convergence_delay == float("inf")
                     else f"{r.convergence_delay * 1e3:.1f} ms")
            rows.append([r.name, delay, f"{r.writer_latency * 1e3:.2f} ms",
                         f"{r.messages_per_update:.1f}",
                         "yes" if r.converged else "no"])
        return rows


def _run_baseline(protocol_cls, *, num_nodes: int, num_writers: int, period: float,
                  duration: float, seed: int, settle: float, **kwargs) -> ProtocolRow:
    deployment = DeploymentBuilder(num_nodes=num_nodes, seed=seed).build()
    writers = deployment.node_ids[:num_writers]
    protocol = protocol_cls(deployment.sim, deployment.network, deployment.nodes,
                            "shared-object", **kwargs)
    protocol.start()

    workload = UniformWorkload(writers, period=period, duration=duration, start=0.0)
    workload.schedule(deployment.sim,
                      lambda writer, k: protocol.write(writer, f"{writer}-{k}",
                                                       metadata_delta=1.0))
    deployment.run(until=duration + settle)
    return ProtocolRow(
        name=protocol_cls.__name__,
        convergence_delay=protocol.metrics.mean_propagation_delay(),
        writer_latency=protocol.metrics.mean_write_latency(),
        messages_per_update=protocol.messages_per_update(),
        converged=protocol.all_replicas_converged())


def _run_idea(*, num_nodes: int, num_writers: int, period: float, duration: float,
              seed: int, settle: float, hint_level: float) -> ProtocolRow:
    deployment = DeploymentBuilder(num_nodes=num_nodes, seed=seed).build()
    writers = deployment.node_ids[:num_writers]
    config = default_whiteboard_config(hint_level=hint_level,
                                       mode=AdaptationMode.HINT_BASED)
    app = WhiteboardApp(deployment, participants=writers, config=config,
                        start_background=False)
    deployment.start_overlay_services()
    schedule_warmup(deployment, writers,
                    lambda i, w: app.post(w, f"warm-up {w}"),
                    first=0.5, gap=0.25)
    deployment.run(until=3.0)

    messages_before = deployment.idea_messages()
    start = deployment.sim.now
    app.schedule_uniform_updates(writers, period=period, duration=duration, start=start)
    deployment.run(until=start + duration + settle / 2)
    # A user explicitly demands one final resolution so the run ends from a
    # converged state (mirrors the baselines, which are left to settle).
    app.middleware(writers[0]).demand_active_resolution()
    deployment.run(until=start + duration + settle)

    resolutions = [r for r in app.managed.resolutions if not r.aborted]
    # Convergence delay for IDEA ≈ time from an update to the next completed
    # resolution that folds it in; approximate with the mean total resolution
    # delay plus half the inter-resolution gap observed in the run.
    if resolutions:
        mean_resolution_delay = sum(r.total_delay for r in resolutions) / len(resolutions)
        finish_times = sorted(r.finished_at for r in resolutions)
        if len(finish_times) > 1:
            gaps = [b - a for a, b in zip(finish_times, finish_times[1:])]
            mean_gap = sum(gaps) / len(gaps)
        else:
            mean_gap = period
        convergence = mean_resolution_delay + mean_gap / 2.0
    else:
        convergence = float("inf")

    updates = len(app.strokes_posted)
    messages = deployment.idea_messages() - messages_before
    return ProtocolRow(name="IDEA",
                       convergence_delay=convergence,
                       writer_latency=0.0,
                       messages_per_update=messages / max(updates, 1),
                       converged=app.convergence())


#: protocol key → baseline class (``"idea"`` routes to :func:`_run_idea`);
#: also the Figure 2 presentation order of the trade-off rows
PROTOCOLS = {
    "optimistic": OptimisticAntiEntropy,
    "tact": TactBoundedConsistency,
    "idea": None,
    "strong": StrongConsistencyPrimary,
}


def run_protocol_point(*, protocol: str, num_nodes: int = 12,
                       num_writers: int = 4, period: float = 5.0,
                       duration: float = 60.0, seed: int = 31,
                       settle: float = 40.0, anti_entropy_period: float = 30.0,
                       idea_hint: float = 0.9) -> ProtocolRow:
    """One Figure 2 grid point: a single protocol on the shared workload."""
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r} "
                         f"(use one of {tuple(PROTOCOLS)})")
    workload = dict(num_nodes=num_nodes, num_writers=num_writers, period=period,
                    duration=duration, seed=seed, settle=settle)
    if protocol == "idea":
        return _run_idea(hint_level=idea_hint, **workload)
    if protocol == "optimistic":
        workload["anti_entropy_period"] = anti_entropy_period
    return _run_baseline(PROTOCOLS[protocol], **workload)


def build_tradeoff_grid(*, seed: int = 31, **point_kwargs) -> List[PointSpec]:
    """The four protocol runs as farm point specs (paper row order)."""
    return [PointSpec.build(
        run_protocol_point, labels=("fig2", protocol),
        protocol=protocol, seed=seed, **point_kwargs)
        for protocol in PROTOCOLS]


def fold_tradeoff(specs: Sequence[PointSpec],
                  rows: List[ProtocolRow]) -> TradeoffResult:
    """The protocols' rows under the workload they all ran."""
    shared = specs[0].arguments()
    return TradeoffResult(
        rows=rows, num_nodes=shared["num_nodes"],
        updates_per_writer=int(shared["duration"] // shared["period"]))


def format_report(result: TradeoffResult) -> str:
    table = format_table(
        ["protocol", "convergence delay", "writer latency", "msgs/update", "converged"],
        result.as_rows(),
        title=(f"Figure 2 reproduction — {result.num_nodes} replicas, "
               f"{result.updates_per_writer} updates/writer"))
    return table + ("\nexpected ordering: optimistic slowest/cheapest, strong "
                    "fastest/most expensive, IDEA in between")
