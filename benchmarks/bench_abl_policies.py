"""Ablation: effect of the three resolution policies on application progress.

Section 4.5.1 argues that the invalidate-both policy sacrifices progress for
fairness (both conflicting strokes disappear) while the user-ID and priority
policies keep the system moving.  This ablation runs the same conflicting
white-board workload under each policy and reports how many strokes survive
on the reconciled board.
"""

from __future__ import annotations

from typing import Dict

from repro.core.config import AdaptationMode, IdeaConfig, ResolutionStrategy
from repro.core.deployment import DeploymentBuilder
from repro.core.policies import make_policy
from repro.experiments.report import format_table


def _run_policy(strategy: ResolutionStrategy, *, seed: int = 43) -> Dict[str, float]:
    deployment = DeploymentBuilder(num_nodes=10, seed=seed).build()
    config = IdeaConfig(mode=AdaptationMode.ON_DEMAND, hint_level=0.0,
                        background_period=None, resolution_strategy=strategy)
    policy = make_policy(strategy, priorities={"n00": 10, "n01": 5})
    deployment.register_object("obj", config, policy=policy, start_background=False)
    writers = deployment.node_ids[:4]

    posted = 0
    for k in range(5):
        for writer in writers:
            if deployment.middleware("obj", writer).write(f"{writer} stroke {k}",
                                                          metadata_delta=1.0):
                posted += 1
        deployment.run(until=deployment.sim.now + 3.0)
        deployment.middleware("obj", writers[0]).resolution.start_background_resolution()
        deployment.run(until=deployment.sim.now + 5.0)

    surviving = len(deployment.stores[writers[0]].read("obj"))
    return {"posted": posted, "surviving": surviving,
            "progress": surviving / max(posted, 1)}


def bench_abl_resolution_policies(benchmark):
    strategies = (ResolutionStrategy.INVALIDATE_BOTH, ResolutionStrategy.USER_ID_BASED,
                  ResolutionStrategy.PRIORITY_BASED)

    def run_all():
        return {s: _run_policy(s) for s in strategies}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(format_table(
        ["policy", "strokes posted", "strokes surviving", "progress"],
        [[s.name, results[s]["posted"], results[s]["surviving"],
          f"{results[s]['progress']:.0%}"] for s in strategies],
        title="Ablation — resolution policy vs application progress"))

    invalidate = results[ResolutionStrategy.INVALIDATE_BOTH]
    user_id = results[ResolutionStrategy.USER_ID_BASED]
    priority = results[ResolutionStrategy.PRIORITY_BASED]
    # Invalidate-both destroys conflicting progress; the other two keep it.
    assert invalidate["surviving"] < user_id["surviving"]
    assert user_id["progress"] == 1.0
    assert priority["progress"] == 1.0
