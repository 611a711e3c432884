"""Table 2: delay breakdown of one active-resolution round.

Paper setup (Section 6.2): a white board with four concurrent writers forming
the top layer; the active-resolution scheme is run four times, each time with
a different writer as the initiator, and the phase delays are averaged.

The paper measures ``phase 1 ≈ 0.47 ms`` (the parallel call-for-attention is
limited only by local dispatch cost) and ``phase 2 ≈ 314 ms`` (the initiator
sequentially visits the other three members, ≈ 105 ms per member on
Planet-Lab).  This harness reproduces the same experiment on the simulated
topology; the absolute per-member cost depends on the synthetic latency model
but the structure — phase 1 three orders of magnitude cheaper than phase 2,
phase 2 linear in the member count — is preserved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.apps.whiteboard import WhiteboardApp, default_whiteboard_config
from repro.core.config import AdaptationMode
from repro.core.deployment import DeploymentBuilder, IdeaDeployment
from repro.experiments.report import format_table
from repro.experiments.scaffold import schedule_warmup
from repro.farm import PointSpec


@dataclass
class PhaseBreakdownResult:
    """Averaged phase delays (seconds) across the runs."""

    runs: int
    top_layer_size: int
    phase1_delays: List[float]
    phase2_delays: List[float]
    per_member_cost: float

    @property
    def mean_phase1(self) -> float:
        return sum(self.phase1_delays) / len(self.phase1_delays)

    @property
    def mean_phase2(self) -> float:
        return sum(self.phase2_delays) / len(self.phase2_delays)


def _build_whiteboard(num_nodes: int, num_writers: int, seed: int
                      ) -> Tuple[IdeaDeployment, WhiteboardApp, List[str]]:
    """Deployment helper shared with the Figure 9 scalability harness."""
    deployment = DeploymentBuilder(num_nodes=num_nodes, seed=seed).build()
    writers = deployment.node_ids[:num_writers]
    # hint 0 ⇒ no automatic resolutions; the harness triggers them explicitly.
    config = default_whiteboard_config(hint_level=0.0,
                                       mode=AdaptationMode.ON_DEMAND)
    app = WhiteboardApp(deployment, participants=list(deployment.node_ids),
                        config=config, start_background=False)
    schedule_warmup(deployment, writers,
                    lambda i, w: app.post(w, f"warm-up by {w}"))
    deployment.run(until=5.0 + 0.5 * num_writers)
    return deployment, app, writers


def _resolve_after_divergence(deployment: IdeaDeployment, app: WhiteboardApp,
                              writers: Sequence[str], start, note: str,
                              wait: float):
    """Every writer posts (fresh divergence, so the round has real work to
    do), then ``start()``'s round gets ``wait`` seconds; its result, or
    ``None`` when it aborted.  Shared with Figure 9."""
    for writer in writers:
        app.post(writer, f"{writer} {note}")
    deployment.run(until=deployment.sim.now + 2.0)
    process = start()
    deployment.run(until=deployment.sim.now + wait)
    result = process.result
    return None if result is None or result.aborted else result


def run_phase_breakdown(*, num_nodes: int = 40, num_writers: int = 4,
                        seed: int = 17) -> PhaseBreakdownResult:
    """Run active resolution once per writer-as-initiator and average."""
    deployment, app, writers = _build_whiteboard(num_nodes, num_writers, seed)

    phase1: List[float] = []
    phase2: List[float] = []
    for initiator in writers:
        result = _resolve_after_divergence(
            deployment, app, writers,
            app.middleware(initiator).resolution.start_active_resolution,
            f"conflicting update before {initiator} resolves", 5.0)
        if result is not None:
            phase1.append(result.phase1_delay)
            phase2.append(result.phase2_delay)

    if not phase2:
        raise RuntimeError("no active-resolution round completed")
    members_visited = num_writers - 1
    per_member = (sum(phase2) / len(phase2)) / members_visited
    return PhaseBreakdownResult(runs=len(phase2), top_layer_size=num_writers,
                                phase1_delays=phase1, phase2_delays=phase2,
                                per_member_cost=per_member)


def build_phase_grid(*, writer_counts: Sequence[int] = (2, 4, 8),
                     num_nodes: int = 40, seed: int = 17) -> List[PointSpec]:
    """Table 2 at several top-layer sizes, as farm point specs."""
    if any(int(count) < 2 for count in writer_counts):
        raise ValueError("writer_counts must all be >= 2 (the initiator "
                         "visits the other members)")
    return [PointSpec.build(
        run_phase_breakdown, labels=("tab2", f"writers{count}"),
        num_nodes=max(num_nodes, int(count)), num_writers=int(count),
        seed=seed)
        for count in writer_counts]


def format_report(result: PhaseBreakdownResult) -> str:
    table = format_table(
        ["", "Delay for 1 round of active resolution"],
        [["Phase 1", f"{result.mean_phase1 * 1e3:.3f} ms"],
         ["Phase 2", f"{result.mean_phase2 * 1e3:.3f} ms"]],
        title=(f"Table 2 reproduction — top layer of {result.top_layer_size}, "
               f"averaged over {result.runs} runs"))
    extra = (f"\nper-member sequential cost: {result.per_member_cost * 1e3:.3f} ms"
             f"\npaper reference: phase 1 = 0.468 ms, phase 2 = 314.2 ms "
             f"(104.7 ms per member)")
    return table + extra
