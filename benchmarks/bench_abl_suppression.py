"""Ablation: back-off suppression of redundant active resolutions.

Section 4.5.2's two-phase protocol uses a random back-off so that when
several top-layer members notice the same inconsistency at once, only one of
them actually runs the (expensive) resolution procedure and the others cancel
("the back-off process is used to suppress redundant resolution process to
save bandwidth").  This ablation triggers an active resolution from all four
writers simultaneously, with and without the suppression window, and compares
how many full resolution rounds (and protocol messages) result.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder
from repro.experiments.report import format_table


def _run(suppression_jitter: float, *, seed: int = 47) -> Dict[str, float]:
    deployment = DeploymentBuilder(num_nodes=12, seed=seed).build()
    config = IdeaConfig(mode=AdaptationMode.ON_DEMAND, hint_level=0.0,
                        background_period=None)
    deployment.register_object("obj", config, start_background=False)
    writers = deployment.node_ids[:4]

    # Create divergence.
    for writer in writers:
        deployment.middleware("obj", writer).write(f"{writer} update", metadata_delta=1.0)
    deployment.run(until=deployment.sim.now + 2.0)

    before = deployment.resolution_messages()
    for writer in writers:
        deployment.middleware("obj", writer).resolution.start_active_resolution(
            suppression_jitter=suppression_jitter)
    deployment.run(until=deployment.sim.now + 20.0)

    histories = [deployment.middleware("obj", w).resolution.history for w in writers]
    rounds = [r for history in histories for r in history if r.kind == "active"]
    completed = sum(1 for r in rounds if not r.aborted)
    suppressed = sum(1 for r in rounds if r.aborted)
    return {"completed": completed, "suppressed": suppressed,
            "messages": deployment.resolution_messages() - before}


def bench_abl_backoff_suppression(benchmark):
    def run_both():
        return {"without": _run(0.0), "with": _run(1.0)}

    results = benchmark.pedantic(run_both, rounds=1, iterations=1)
    print()
    print(format_table(
        ["suppression", "completed rounds", "suppressed attempts", "resolution messages"],
        [[name, r["completed"], r["suppressed"], r["messages"]]
         for name, r in results.items()],
        title="Ablation — back-off suppression of concurrent initiators"))

    # Without suppression every initiator runs a full round; with it, fewer
    # full rounds run and less resolution traffic is generated.
    assert results["without"]["completed"] >= results["with"]["completed"]
    assert results["with"]["suppressed"] >= 1
    assert results["with"]["messages"] <= results["without"]["messages"]
