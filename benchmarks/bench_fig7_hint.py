"""Figure 7(a)/(b): the adaptive interface with hint levels 95 % and 85 %.

Regenerates the consistency-level-versus-time series of Figures 7(a) and
7(b): 40 nodes, four far-apart writers updating every 5 s for 100 s, sampled
every 5 s.  Paper reference points: the lowest user-view level is ≈ 94 % for
the 95 % hint and ≈ 84 % for the 85 % hint, and IDEA restores the level
within one sampling interval of every dip.  Every panel is
``repro.experiments.run("fig7", hint_levels=…, …)``.
"""

from __future__ import annotations

from repro.experiments import get, run


def _panels(*hint_levels):
    return run("fig7", hint_levels=hint_levels, num_nodes=40, duration=100.0,
               seed=11)


def bench_fig7a_hint_95(benchmark):
    (result,) = benchmark.pedantic(lambda: _panels(0.95), rounds=1, iterations=1)
    print()
    print(get("fig7").report([result]))
    # Shape checks mirroring the paper's observations: the user-view level
    # never falls more than a few points below the hint (the paper reports a
    # lowest value of 94% for the 95% hint) because every violation triggers
    # an active resolution that completes well within one sampling interval.
    assert result.active_resolutions > 0
    assert 0.85 < result.lowest_worst_level < 1.0
    assert result.lowest_worst_level > result.hint_level - 0.06


def bench_fig7b_hint_85(benchmark):
    (result,) = benchmark.pedantic(lambda: _panels(0.85), rounds=1, iterations=1)
    print()
    print(get("fig7").report([result]))
    assert result.active_resolutions > 0
    assert 0.70 < result.lowest_worst_level < 0.95


def bench_fig7_hint_ordering(benchmark):
    """Lowering the hint lowers the maintained level and the resolution count."""
    high, low = benchmark.pedantic(lambda: _panels(0.95, 0.85), rounds=1,
                                   iterations=1)
    assert low.lowest_worst_level < high.lowest_worst_level
    assert low.active_resolutions < high.active_resolutions
