"""Table 3: communication overhead of background resolution.

Paper setup (Section 6.3): IDEA deployed under an automatic airline-booking
application; the background-resolution scheme runs every 20 seconds in one
experiment and every 40 seconds in the other, both for 100 seconds, and the
overhead is reported as the number of exchanged protocol messages (168 vs 96
in the paper).  Dividing the pooled total by the pooled number of rounds
gives the per-round cost (the paper's ≈ 44 messages, Formula 5), which in
turn feeds Formula 4's optimal background-resolution rate.

The shapes to reproduce: the more frequent schedule costs proportionally more
messages, and the per-round cost is independent of the schedule.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.analysis.formulas import messages_per_round, optimal_background_rate, round_cost_bits
from repro.apps.booking import BookingApp, default_booking_config
from repro.core.deployment import DeploymentBuilder
from repro.experiments.report import format_table
from repro.experiments.scaffold import run_sampled, schedule_warmup
from repro.farm import PointSpec
from repro.workloads.legacy import UniformWorkload


@dataclass
class BookingRun:
    """Everything measured in one booking-application run."""

    background_period: float
    duration: float
    resolution_messages: int
    detection_messages: int
    background_rounds: int
    sample_times: List[float]
    worst_levels: List[float]
    average_levels: List[float]
    oversold: int
    undersold: int
    sales_accepted: int


@dataclass
class OverheadResult:
    """Table 3 reproduction: one row per background period."""

    runs: List[BookingRun]
    per_round_messages: float
    assumed_message_bytes: int = 1024

    def as_rows(self) -> List[List[object]]:
        rows = []
        for run in self.runs:
            rows.append([f"{run.background_period:.0f} seconds",
                         run.resolution_messages, run.background_rounds])
        return rows

    def optimal_rate(self, available_bandwidth_bps: float, cap_fraction: float) -> float:
        """Formula 4 applied to this reproduction's measured per-round cost."""
        cost_bits = round_cost_bits(self.per_round_messages, self.assumed_message_bytes)
        return optimal_background_rate(available_bandwidth_bps, cap_fraction, cost_bits)


def run_booking_scenario(*, background_period: float, duration: float = 100.0,
                         num_nodes: int = 40, num_servers: int = 4,
                         booking_period: float = 5.0, capacity: int = 500,
                         sample_period: float = 5.0, seed: int = 23,
                         warmup: float = 10.0) -> BookingRun:
    """Run the automatic booking application with one background period."""
    deployment = DeploymentBuilder(num_nodes=num_nodes, seed=seed).build()
    servers = deployment.node_ids[:num_servers]
    config = default_booking_config(background_period=background_period)
    app = BookingApp(deployment, servers=servers, capacity=capacity, config=config,
                     start_background=True)
    deployment.start_overlay_services()

    # Warm-up sales so the servers populate the top layer.
    schedule_warmup(deployment, servers,
                    lambda i, s: app.book(s, f"warmup-{i}"))
    deployment.run(until=warmup)
    start = deployment.sim.now

    messages_before = deployment.resolution_messages()
    detection_before = deployment.detection_messages()
    rounds_before = app.managed.background_rounds

    workload = UniformWorkload(servers, period=booking_period, duration=duration,
                               start=start)
    customers = itertools.count(1)
    workload.schedule(deployment.sim, lambda server, k: app.book(
        server, f"customer-{next(customers)}"))

    sample_times, worst_levels, average_levels = run_sampled(
        deployment, app.sample, start=start, duration=duration,
        sample_period=sample_period, lag=1.0)

    outcome = app.outcome()
    return BookingRun(
        background_period=background_period, duration=duration,
        resolution_messages=deployment.resolution_messages() - messages_before,
        detection_messages=deployment.detection_messages() - detection_before,
        background_rounds=app.managed.background_rounds - rounds_before,
        sample_times=sample_times, worst_levels=worst_levels,
        average_levels=average_levels, oversold=outcome.oversold,
        undersold=outcome.undersold, sales_accepted=outcome.accepted)


def build_overhead_grid(*, periods: Tuple[float, ...] = (20.0, 40.0),
                        seed: int = 23, **point_kwargs) -> List[PointSpec]:
    """One booking run per background period, as farm point specs."""
    return [PointSpec.build(
        run_booking_scenario, labels=("tab3", f"period{period:g}"),
        background_period=float(period), seed=seed, **point_kwargs)
        for period in periods]


def fold_overhead(specs: Sequence[PointSpec],
                  runs: List[BookingRun]) -> OverheadResult:
    """Pool the runs' messages and rounds into the per-round cost."""
    totals = [r.resolution_messages for r in runs]
    round_counts = [max(r.background_rounds, 1) for r in runs]
    per_round = messages_per_round(totals, round_counts)
    return OverheadResult(runs=runs, per_round_messages=per_round)


def format_report(result: OverheadResult) -> str:
    table = format_table(
        ["Frequency", "Overhead (# of exchanged messages)", "rounds"],
        result.as_rows(), title="Table 3 reproduction — background-resolution overhead")
    ratio = ""
    if len(result.runs) >= 2 and result.runs[1].resolution_messages:
        ratio = (f"\nmessage ratio (fast/slow): "
                 f"{result.runs[0].resolution_messages / result.runs[1].resolution_messages:.2f} "
                 f"(paper: 168/96 = 1.75)")
    extra = (f"\nmessages per background round: {result.per_round_messages:.1f} "
             f"(paper Formula 5: 44)"
             f"\noptimal rate at 1 Mbps, 20% cap: "
             f"{result.optimal_rate(1_000_000, 0.2):.3f} rounds/s")
    return table + ratio + extra
