"""Integration tests: scaled-down versions of every paper experiment.

These use smaller deployments / shorter durations than the benchmarks so the
whole suite stays fast, but they assert the same qualitative claims the
benchmarks (and the paper) make.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.experiments import run
from repro.experiments.fig7_hint import format_report, run_hint_experiment
from repro.experiments.fig8_hint_change import run_hint_change_experiment
from repro.experiments.fig9_scalability import (run_multiobject_point,
                                                run_scalability_point)
from repro.experiments.report import format_table, percent
from repro.experiments.scaffold import (run_sampled, schedule_warmup,
                                        start_object_writers)
from repro.experiments.tab2_phases import run_phase_breakdown


class TestReportHelpers:
    def test_format_table_aligns_columns(self):
        table = format_table(["a", "longer"], [[1, 2.5], ["xx", "y"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "longer" in lines[1]
        assert len(lines) == 5

    def test_percent(self):
        assert percent(0.943) == "94.3%"


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
        return run("fig9", max_top_layer=6, num_nodes=16, seed=19)

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
        return run("tab3", periods=(20.0, 40.0), duration=80.0,
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
        result = run("fig10", periods=(20.0, 40.0), duration=60.0,
                     num_nodes=12, seed=29)
        assert len(result.runs) == 2
        assert result.mean_average_level(result.runs[0]) >= result.mean_average_level(
            result.runs[1])


class TestFig2:
    @pytest.fixture(scope="class")
    def result(self):
        return run("fig2", num_nodes=8, duration=40.0, settle=30.0, seed=31)

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


class _StubClock:
    """Records ``call_at`` instead of scheduling; ``now`` is set by hand."""

    def __init__(self):
        self.now = 0.0
        self.calls = []

    def call_at(self, when, fn, *, label=""):
        self.calls.append((when, label, fn))

    def schedule(self):
        return [(when, getattr(getattr(fn, "__self__", None), "label", label))
                for when, label, fn in self.calls]


class _StubDeployment:
    def __init__(self, num_nodes=5):
        self.sim = _StubClock()
        self.node_ids = [f"n{i:02d}" for i in range(num_nodes)]
        self.nodes = {n: SimpleNamespace(alive=True) for n in self.node_ids}
        self.ran_until = []
        self.writes = []

    def middleware(self, object_id, node_id):
        return SimpleNamespace(write=lambda metadata_delta: self.writes.append(
            (object_id, node_id, metadata_delta)))

    def run(self, until):
        self.ran_until.append(until)


class TestScaffoldKeepsTheSchedulesItReplaced:
    """Each hoisted helper against the loop it replaced, written out here:
    the same ``(time, label)`` sequence in the same order, so event sequence
    numbers — and every pinned trace — cannot move."""

    @pytest.mark.parametrize("first, gap", [(1.0, 0.5), (0.5, 0.25)])
    def test_warmup(self, first, gap):
        deployment, acted = _StubDeployment(), []
        writers = deployment.node_ids[:4]
        if (first, gap) == (1.0, 0.5):       # fig7, tab2, tab3
            schedule_warmup(deployment, writers,
                            lambda i, w: acted.append((i, w)))
        else:                                # fig2
            schedule_warmup(deployment, writers,
                            lambda i, w: acted.append((i, w)),
                            first=first, gap=gap)
        replaced = [(first + gap * i, "warmup")
                    for i, writer in enumerate(writers)]
        assert deployment.sim.schedule() == replaced
        for _, _, fn in deployment.sim.calls:
            fn()
        assert acted == list(enumerate(writers))

    @pytest.mark.parametrize("lag, duration, sample_period",
                             [(0.1, 100.0, 5.0), (1.0, 40.0, 5.0),
                              (0.1, 17.0, 3.0), (1.0, 2.0, 5.0)])
    def test_sampling(self, lag, duration, sample_period):
        deployment, start = _StubDeployment(), 10.0
        readings = iter((0.5 + k / 100, 0.7 + k / 100) for k in range(99))
        series = run_sampled(deployment, lambda: next(readings), start=start,
                             duration=duration, sample_period=sample_period,
                             lag=lag)
        replaced = [(start + k * sample_period + lag, "sample")
                    for k in range(1, int(duration // sample_period) + 1)]
        assert deployment.sim.schedule() == replaced
        assert deployment.ran_until == [start + duration + sample_period]
        for when, _, fn in deployment.sim.calls:
            deployment.sim.now = when
            fn()
        times, worst, average = series
        assert times == [when - start for when, _ in replaced]
        assert worst == [0.5 + k / 100 for k in range(len(replaced))]
        assert average == [0.7 + k / 100 for k in range(len(replaced))]

    @pytest.mark.parametrize("experiment", ["churn", "multiobject"])
    def test_staggered_writers(self, experiment):
        deployment = _StubDeployment(num_nodes=5)
        num_objects, writers_per_object, write_period = 40, 4, 2.0
        replaced = []
        for i in range(num_objects):
            if experiment == "churn":
                object_id, by_object = f"obj{i:02d}", 0.01 * i
            else:
                object_id, by_object = f"obj{i:04d}", 0.003 * (i % 32)
            start_object_writers(
                deployment, object_id, i, write_period=write_period,
                writers_per_object=writers_per_object, offset=by_object)
            for w in range(writers_per_object):
                offset = (0.05 + write_period * (w / writers_per_object)
                          + by_object)
                replaced.append((offset, f"wl:{object_id}"))
        assert deployment.sim.schedule() == replaced

        timers = [fn.__self__ for _, _, fn in deployment.sim.calls]
        assert {t._period for t in timers} == {write_period}
        down = deployment.node_ids[1]
        deployment.nodes[down].alive = False   # crashed writers skip rounds
        for timer in timers:
            timer.callback()
        expected = [(f"obj{i:02d}" if experiment == "churn" else f"obj{i:04d}",
                     deployment.node_ids[(i + w) % 5], 1.0)
                    for i in range(num_objects)
                    for w in range(writers_per_object)]
        assert deployment.writes == [w for w in expected if w[1] != down]
