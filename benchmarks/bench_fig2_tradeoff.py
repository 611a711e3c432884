"""Figure 2: the detection-speed versus overhead trade-off, made quantitative.

Paper claim: IDEA "achieves faster detection and resolution (thus stronger
consistency guarantee) than optimistic consistency control ... with a
slightly higher cost; its overhead is much smaller than other protocols, such
as strong consistency".  The benchmark runs the same conflicting-update
workload over optimistic anti-entropy, TACT-style bounded divergence, IDEA
and primary-copy strong consistency (``repro.experiments.run("fig2", …)``)
and checks the orderings.
"""

from __future__ import annotations

from repro.experiments import get, run


def bench_fig2_tradeoff(benchmark):
    result = benchmark.pedantic(
        lambda: run("fig2", num_nodes=12, num_writers=4, period=5.0,
                    duration=60.0, settle=40.0, seed=31),
        rounds=1, iterations=1)
    print()
    print(get("fig2").report(result))

    optimistic = result.row("OptimisticAntiEntropy")
    tact = result.row("TactBoundedConsistency")
    idea = result.row("IDEA")
    strong = result.row("StrongConsistencyPrimary")

    # Overhead ordering: optimistic < IDEA < strong (the paper's Figure 2 axis).
    assert optimistic.messages_per_update < idea.messages_per_update
    assert idea.messages_per_update < strong.messages_per_update

    # Detection/convergence speed: IDEA far faster than optimistic.
    assert idea.convergence_delay < optimistic.convergence_delay

    # Only strong consistency blocks writers synchronously.
    assert strong.writer_latency > 0.05
    assert optimistic.writer_latency == 0.0
    assert idea.writer_latency == 0.0

    # Strong consistency and TACT both converge; strong does so fastest.
    assert strong.converged
    assert strong.convergence_delay < tact.convergence_delay
