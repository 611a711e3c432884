"""Integration tests: scaled-down versions of every paper experiment.

These use smaller deployments / shorter durations than the benchmarks so the
whole suite stays fast, but they assert the same qualitative claims the
benchmarks (and the paper) make.
"""

from __future__ import annotations

import pytest

from repro.experiments.fig2_tradeoff import run_tradeoff_experiment
from repro.experiments.fig7_hint import format_report, run_hint_experiment
from repro.experiments.fig8_hint_change import run_hint_change_experiment
from repro.experiments.fig9_scalability import (run_multiobject_point,
                                                run_scalability_experiment,
                                                run_scalability_point)
from repro.experiments.fig10_automatic import run_automatic_experiment
from repro.experiments.report import format_table, percent, series_to_rows
from repro.experiments.tab2_phases import run_phase_breakdown
from repro.experiments.tab3_overhead import run_overhead_experiment


class TestReportHelpers:
    def test_format_table_aligns_columns(self):
        table = format_table(["a", "longer"], [[1, 2.5], ["xx", "y"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "longer" in lines[1]
        assert len(lines) == 5

    def test_percent(self):
        assert percent(0.943) == "94.3%"

    def test_series_to_rows(self):
        rows = series_to_rows([0.0, 5.0], ("x", [1.0, 2.0]), ("y", [3.0]))
        assert rows == [[0.0, 1.0, 3.0], [5.0, 2.0, ""]]


class TestFig7:
    @pytest.fixture(scope="class")
    def result95(self):
        return run_hint_experiment(hint_level=0.95, num_nodes=16, duration=60.0, seed=11)

    @pytest.fixture(scope="class")
    def result85(self):
        return run_hint_experiment(hint_level=0.85, num_nodes=16, duration=60.0, seed=11)

    def test_samples_cover_run(self, result95):
        assert len(result95.sample_times) == 12

    def test_hint_95_keeps_level_near_hint(self, result95):
        """The paper's headline: lowest level ≈ 94% for a 95% hint."""
        assert result95.lowest_worst_level > 0.88
        assert result95.lowest_worst_level < 1.0

    def test_hint_95_triggers_resolutions(self, result95):
        assert result95.active_resolutions > 0

    def test_lower_hint_lowers_maintained_level(self, result95, result85):
        assert result85.lowest_worst_level < result95.lowest_worst_level

    def test_lower_hint_needs_fewer_resolutions(self, result95, result85):
        assert result85.active_resolutions < result95.active_resolutions

    def test_worst_never_exceeds_average(self, result95):
        for worst, avg in zip(result95.worst_levels, result95.average_levels):
            assert worst <= avg + 1e-9

    def test_format_report_contains_series(self, result95):
        text = format_report(result95)
        assert "view from the user" in text
        assert "lowest user-view level" in text


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_hint_change_experiment(num_nodes=16, duration=120.0,
                                          switch_time=60.0, seed=13)

    def test_hint_change_takes_effect(self, result):
        """Maintained level tracks the hint: higher before the switch."""
        assert result.lowest_first_half > result.lowest_second_half

    def test_second_half_still_respects_new_hint(self, result):
        assert result.lowest_second_half > result.later_hint - 0.12

    def test_resolutions_happen_in_both_halves(self, result):
        assert result.active_resolutions >= 2


class TestTab2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_phase_breakdown(num_nodes=16, num_writers=4, seed=17)

    def test_four_runs_averaged(self, result):
        assert result.runs == 4

    def test_phase1_sub_millisecond(self, result):
        """Paper: phase 1 ≈ 0.47 ms (parallel call-for-attention)."""
        assert result.mean_phase1 < 0.002

    def test_phase2_dominates(self, result):
        """Paper: phase 2 (≈314 ms) is orders of magnitude larger than phase 1."""
        assert result.mean_phase2 > 50 * result.mean_phase1
        assert 0.02 < result.mean_phase2 < 1.0

    def test_per_member_cost_in_wan_range(self, result):
        assert 0.01 < result.per_member_cost < 0.3


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scalability_experiment(max_top_layer=6, num_nodes=16, seed=19)

    def test_delay_grows_with_top_layer_size(self, result):
        assert result.active_delays[-1] > result.active_delays[0]

    def test_ten_writers_extrapolation_below_one_second(self, result):
        assert result.fitted.predict(10) < 1.0

    def test_background_cheaper_than_active_on_average(self, result):
        avg_active = sum(result.active_delays) / len(result.active_delays)
        avg_background = sum(result.background_delays) / len(result.background_delays)
        assert avg_background <= avg_active * 1.2

    def test_fitted_slope_positive(self, result):
        assert result.fitted.per_member > 0

    def test_512_node_point_is_pinned_and_sub_second(self):
        # Resolution cost follows the top-layer size, not the deployment
        # size: four writers on 512 nodes still resolve well under a second.
        active, background = run_scalability_point(size=4, num_nodes=512,
                                                   seed=23)
        assert (active, background) == pytest.approx((0.26575, 0.30258),
                                                     abs=1e-5)
        assert active < 1.0 and background < 1.0
        _, events, writes = run_multiobject_point(
            num_nodes=512, num_objects=4, writers_per_object=4,
            write_period=2.0, duration=60.0, seed=23)
        assert (events, writes) == (1848, 464)


class TestTab3AndFig10:
    @pytest.fixture(scope="class")
    def overhead(self):
        return run_overhead_experiment(periods=(20.0, 40.0), duration=80.0,
                                       num_nodes=16, seed=23)

    def test_faster_schedule_costs_more_messages(self, overhead):
        fast, slow = overhead.runs
        assert fast.resolution_messages > slow.resolution_messages

    def test_per_round_cost_constant_across_schedules(self, overhead):
        fast, slow = overhead.runs
        per_fast = fast.resolution_messages / max(fast.background_rounds, 1)
        per_slow = slow.resolution_messages / max(slow.background_rounds, 1)
        assert per_fast == pytest.approx(per_slow, rel=0.5)

    def test_optimal_rate_positive(self, overhead):
        assert overhead.optimal_rate(1_000_000, 0.2) > 0

    def test_faster_schedule_gives_higher_consistency(self, overhead):
        fast, slow = overhead.runs
        mean_fast = sum(fast.average_levels) / len(fast.average_levels)
        mean_slow = sum(slow.average_levels) / len(slow.average_levels)
        assert mean_fast > mean_slow

    def test_automatic_experiment_wraps_same_runs(self):
        result = run_automatic_experiment(periods=(20.0, 40.0), duration=60.0,
                                          num_nodes=12, seed=29)
        assert len(result.runs) == 2
        assert result.mean_average_level(result.runs[0]) >= result.mean_average_level(
            result.runs[1])


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return run_tradeoff_experiment(num_nodes=8, duration=40.0, settle=30.0, seed=31)

    def test_strong_pays_highest_message_cost(self, result):
        strong = result.row("StrongConsistencyPrimary")
        for row in result.rows:
            assert strong.messages_per_update >= row.messages_per_update

    def test_optimistic_is_cheapest(self, result):
        optimistic = result.row("OptimisticAntiEntropy")
        for row in result.rows:
            assert optimistic.messages_per_update <= row.messages_per_update

    def test_idea_sits_between_optimistic_and_strong_in_cost(self, result):
        idea = result.row("IDEA")
        assert result.row("OptimisticAntiEntropy").messages_per_update < \
            idea.messages_per_update < result.row("StrongConsistencyPrimary").messages_per_update

    def test_only_strong_blocks_writers(self, result):
        assert result.row("StrongConsistencyPrimary").writer_latency > 0
        assert result.row("OptimisticAntiEntropy").writer_latency == 0
        assert result.row("IDEA").writer_latency == 0

    def test_idea_converges_faster_than_optimistic(self, result):
        assert result.row("IDEA").convergence_delay < \
            result.row("OptimisticAntiEntropy").convergence_delay
