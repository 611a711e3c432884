"""Table 2: delay breakdown of one round of active resolution.

Paper reference (Planet-Lab, top layer of four, averaged over four runs):
phase 1 = 0.46825 ms, phase 2 = 314.241 ms (≈ 104.7 ms per visited member).
The reproduction's absolute phase-2 value depends on the synthetic WAN
latency model, but the structure must hold: phase 1 stays sub-millisecond
(parallel dispatch only) and phase 2 is two to three orders of magnitude
larger and linear in the member count.  Runs
``repro.experiments.run("tab2", writer_counts=(4,), …)``.
"""

from __future__ import annotations

from repro.experiments import get, run


def bench_tab2_phase_breakdown(benchmark):
    (result,) = benchmark.pedantic(
        lambda: run("tab2", writer_counts=(4,), num_nodes=40, seed=17),
        rounds=1, iterations=1)
    print()
    print(get("tab2").report([result]))
    assert result.runs == 4
    assert result.top_layer_size == 4
    # Phase 1: parallel call-for-attention, sub-millisecond.
    assert result.mean_phase1 < 0.002
    # Phase 2: sequential wide-area visits, hundreds of milliseconds.
    assert 0.05 < result.mean_phase2 < 1.0
    assert result.mean_phase2 > 100 * result.mean_phase1
    # Per-member cost in the wide-area RTT-plus-processing range.
    assert 0.02 < result.per_member_cost < 0.3
