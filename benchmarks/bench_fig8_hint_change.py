"""Figure 8: hint lowered from 95 % to 90 % at t = 100 s during a 200 s run.

Paper reference: the lowest consistency level achieved by any writer is
≈ 95 % in the first 100 seconds and ≈ 90 % in the second 100 seconds —
the maintained level tracks the runtime hint change.  Runs
``repro.experiments.run("fig8", hint_schedules=((0.95, 0.90),), …)``.
"""

from __future__ import annotations

from repro.experiments import get, run


def bench_fig8_hint_change(benchmark):
    (result,) = benchmark.pedantic(
        lambda: run("fig8", hint_schedules=((0.95, 0.90),), switch_time=100.0,
                    num_nodes=40, duration=200.0, seed=13),
        rounds=1, iterations=1)
    print()
    print(get("fig8").report([result]))
    # The maintained (lowest) level follows the hint downwards after the switch.
    assert result.lowest_first_half > result.lowest_second_half
    # Both halves stay in the neighbourhood of their hint.
    assert result.lowest_first_half > result.initial_hint - 0.08
    assert result.lowest_second_half > result.later_hint - 0.08
    assert result.active_resolutions > 0
