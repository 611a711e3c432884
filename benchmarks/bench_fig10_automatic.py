"""Figure 10: consistency level of the automatic booking system over time.

Paper reference: with background resolution every 20 s the system's
consistency level is visibly higher than with the 40 s schedule; each round
snaps the level back up, giving a saw-tooth whose depth depends on the
period — the frequency/consistency trade-off of Section 6.3.2.  Runs ``repro.experiments.run("fig10", …)``.
"""

from __future__ import annotations

from repro.experiments import get, run


def bench_fig10_automatic(benchmark):
    result = benchmark.pedantic(
        lambda: run("fig10", periods=(20.0, 40.0), duration=100.0,
                    num_nodes=40, seed=29),
        rounds=1, iterations=1)
    print()
    print(get("fig10").report(result))

    fast, slow = result.runs
    mean_fast = result.mean_average_level(fast)
    mean_slow = result.mean_average_level(slow)
    # The 20-second schedule maintains a higher average consistency level.
    assert mean_fast > mean_slow
    # Saw-tooth recovery: after a background round the level climbs again,
    # so the series is not monotonically decreasing.
    increases = sum(1 for a, b in zip(slow.average_levels, slow.average_levels[1:])
                    if b > a + 1e-6)
    assert increases >= 1
    # No overselling occurred at this capacity in either run.
    assert fast.oversold == 0
