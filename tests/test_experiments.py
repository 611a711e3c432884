"""The paper's claims, each stated once as a named predicate over the result
of the registered experiment that reproduces it.

``CLAIMS`` holds each predicate under its experiment's registry name and the
paper artefact it checks.  Every claim runs on the registry's default
grid, which is the paper's size, and every paper experiment's claims also
run at the smaller size in ``SMALL``.  Where a claim was once asserted with
two bounds, it keeps the tighter one at both sizes.
"""

from __future__ import annotations

import functools
import itertools
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

import numpy as np
import pytest

from repro.experiments import run
from repro.experiments.fig7_hint import format_report
from repro.experiments.fig9_scalability import (run_multiobject_point,
                                                run_scalability_point)
from repro.experiments.report import format_table, percent
from repro.experiments.scaffold import (run_sampled, schedule_warmup,
                                        start_object_writers)


class TestReportHelpers:
    def test_format_table_aligns_columns(self):
        table = format_table(["a", "longer"], [[1, 2.5], ["xx", "y"]], title="T")
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "longer" in lines[1]
        assert len(lines) == 5

    def test_percent(self):
        assert percent(0.943) == "94.3%"


class Claim(NamedTuple):
    experiment: str                   # registry name
    artefact: str                     # the figure, table, formula or section
    name: str
    predicate: Callable[[Any], bool]  # over run(experiment, ...)'s result


OPT, TACT, STRONG = ("OptimisticAntiEntropy", "TactBoundedConsistency",
                     "StrongConsistencyPrimary")


def _cost(result, protocol):
    return result.row(protocol).messages_per_update


def _panel(result, hint_level):
    (panel,) = [r for r in result if r.hint_level == hint_level]
    return panel


def _per_round_spread(result):
    """|fast - slow| over the smaller of the two per-round message costs."""
    fast, slow = (r.resolution_messages / max(r.background_rounds, 1)
                  for r in result.runs)
    return abs(fast - slow) / min(fast, slow)


def _strategy(result, name):
    (run,) = [r for r in result if r.strategy == name]
    return run


def _capture(result, fraction):
    (run,) = [r for r in result if r.bottom_writer_fraction == fraction]
    return run.capture_rate


CLAIMS = [
    # Figure 2: the detection-speed versus overhead trade-off
    Claim("fig2", "Fig2", "overhead_orders_optimistic_idea_strong",
          lambda r: _cost(r, OPT) < _cost(r, "IDEA") < _cost(r, STRONG)),
    Claim("fig2", "Fig2", "optimistic_is_cheapest",
          lambda r: all(_cost(r, OPT) <= x.messages_per_update for x in r.rows)),
    Claim("fig2", "Fig2", "strong_pays_highest_message_cost",
          lambda r: all(_cost(r, STRONG) >= x.messages_per_update
                        for x in r.rows)),
    Claim("fig2", "Fig2", "idea_converges_faster_than_optimistic",
          lambda r: r.row("IDEA").convergence_delay
          < r.row(OPT).convergence_delay),
    Claim("fig2", "Fig2", "only_strong_blocks_writers",
          lambda r: r.row(STRONG).writer_latency > 0.05
          and r.row(OPT).writer_latency == 0.0
          and r.row("IDEA").writer_latency == 0.0),
    Claim("fig2", "Fig2", "strong_converges_before_tact",
          lambda r: r.row(STRONG).converged and r.row(STRONG).convergence_delay
          < r.row(TACT).convergence_delay),
    # Figure 7: a fixed hint; the paper's lowest level is 94 % at 95 %
    Claim("fig7", "Fig7a", "hint_95_keeps_level_near_hint",
          lambda r: 0.95 - 0.06 < _panel(r, 0.95).lowest_worst_level < 1.0),
    Claim("fig7", "Fig7b", "hint_85_keeps_level_near_hint",
          lambda r: 0.70 < _panel(r, 0.85).lowest_worst_level < 0.95),
    Claim("fig7", "Fig7", "every_hint_triggers_active_resolutions",
          lambda r: all(panel.active_resolutions > 0 for panel in r)),
    Claim("fig7", "Fig7", "lower_hint_lowers_maintained_level",
          lambda r: _panel(r, 0.85).lowest_worst_level
          < _panel(r, 0.95).lowest_worst_level),
    Claim("fig7", "Fig7", "lower_hint_needs_fewer_resolutions",
          lambda r: _panel(r, 0.85).active_resolutions
          < _panel(r, 0.95).active_resolutions),
    Claim("fig7", "Fig7", "worst_never_exceeds_average",
          lambda r: all(worst <= average + 1e-9 for panel in r
                        for worst, average in zip(panel.worst_levels,
                                                  panel.average_levels))),
    # Figure 8: the hint lowered mid-run, every schedule in the grid
    Claim("fig8", "Fig8", "maintained_level_follows_the_hint_down",
          lambda r: all(x.lowest_first_half > x.lowest_second_half for x in r)),
    Claim("fig8", "Fig8", "both_halves_stay_near_their_hint",
          lambda r: all(x.lowest_first_half > x.initial_hint - 0.08
                        and x.lowest_second_half > x.later_hint - 0.08
                        for x in r)),
    Claim("fig8", "Fig8", "resolutions_happen_in_both_halves",
          lambda r: all(x.active_resolutions >= 2 for x in r)),
    # Table 2: every top-layer size in the grid; the paper's four writers
    # average four runs, phase 1 = 0.47 ms and phase 2 = 314 ms
    Claim("tab2", "Tab2", "one_round_per_initiator",
          lambda r: any(x.top_layer_size == 4 for x in r)
          and all(x.runs == x.top_layer_size for x in r)),
    Claim("tab2", "Tab2", "phase1_sub_millisecond",
          lambda r: all(x.mean_phase1 < 0.002 for x in r)),
    Claim("tab2", "Tab2", "phase2_dominates",
          lambda r: all(x.mean_phase2 > 100 * x.mean_phase1
                        and 0.05 < x.mean_phase2 < 1.0 for x in r)),
    Claim("tab2", "Tab2", "per_member_cost_in_wan_range",
          lambda r: all(0.02 < x.per_member_cost < 0.3 for x in r)),
    # Figure 9 and Formulas 2-3: resolution cost against the top-layer size
    Claim("fig9", "Fig9", "delay_grows_with_top_layer_size",
          lambda r: r.active_delays[-1] > r.active_delays[0]),
    Claim("fig9", "Formula2", "delay_is_linear_in_top_layer_size",
          lambda r: np.corrcoef([r.fitted.predict(n) for n in r.sizes],
                                r.active_delays)[0, 1] > 0.9),
    Claim("fig9", "Formula2", "fitted_slope_positive",
          lambda r: r.fitted.per_member > 0),
    Claim("fig9", "Fig9", "ten_writers_resolve_below_one_second",
          lambda r: max(r.active_delays) < 1.0 and r.fitted.predict(10) < 1.0),
    Claim("fig9", "Formula3", "background_no_dearer_than_active",
          lambda r: np.mean(r.background_delays)
          <= np.mean(r.active_delays) * 1.2),
    # Table 3 and Formulas 4-5; runs are [every 20 s, every 40 s]
    Claim("tab3", "Tab3", "faster_schedule_runs_more_rounds",
          lambda r: r.runs[0].background_rounds > r.runs[1].background_rounds),
    Claim("tab3", "Tab3", "faster_schedule_costs_more_messages",
          lambda r: r.runs[0].resolution_messages
          > r.runs[1].resolution_messages),
    Claim("tab3", "Formula5", "per_round_cost_constant_across_schedules",
          lambda r: _per_round_spread(r) < 0.5),
    # under a 20 % cap of 1 Mbps, more than one round per 20 s
    Claim("tab3", "Formula4", "optimal_rate_exceeds_the_fast_schedule",
          lambda r: r.optimal_rate(1_000_000, 0.2) > 1.0 / 20.0),
    # at 1 KB a message, the fast schedule stays in the KB/s range
    Claim("tab3", "Tab3", "bandwidth_stays_in_kb_per_second",
          lambda r: r.runs[0].resolution_messages / r.runs[0].duration < 50.0),
    Claim("tab3", "Sec6.3.2", "faster_schedule_gives_higher_consistency",
          lambda r: np.mean(r.runs[0].average_levels)
          > np.mean(r.runs[1].average_levels)),
    # Figure 10: the saw-tooth under automatic background resolution
    Claim("fig10", "Fig10", "one_run_per_period", lambda r: len(r.runs) == 2),
    Claim("fig10", "Fig10", "faster_schedule_keeps_higher_level",
          lambda r: r.mean_average_level(r.runs[0])
          > r.mean_average_level(r.runs[1])),
    Claim("fig10", "Fig10", "level_saw_tooths_back_up",
          lambda r: any(b > a + 1e-6 for a, b
                        in itertools.pairwise(r.runs[1].average_levels))),
    Claim("fig10", "Fig10", "no_seat_oversold",
          lambda r: r.runs[0].oversold == 0),
    # Ablations: the resolution policies and the back-off of Section 4.5,
    # and the two-layer overlay's capture claim (Section 4.1, from IDF)
    Claim("abl_policies", "Sec4.5.1", "invalidate_both_loses_progress",
          lambda r: _strategy(r, "INVALIDATE_BOTH").surviving
          < _strategy(r, "USER_ID_BASED").surviving),
    Claim("abl_policies", "Sec4.5.1", "user_id_and_priority_keep_all_progress",
          lambda r: _strategy(r, "USER_ID_BASED").progress == 1.0
          and _strategy(r, "PRIORITY_BASED").progress == 1.0),
    # suppression runs are [without back-off, with it]
    Claim("abl_suppression", "Sec4.5.2", "backoff_completes_no_more_rounds",
          lambda r: r[0].completed >= r[1].completed),
    Claim("abl_suppression", "Sec4.5.2", "backoff_suppresses_an_initiator",
          lambda r: r[1].suppressed >= 1),
    Claim("abl_suppression", "Sec4.5.2", "backoff_saves_resolution_traffic",
          lambda r: r[1].messages <= r[0].messages),
    Claim("abl_toplayer", "Sec4.1", "top_layer_captures_over_95_percent",
          lambda r: _capture(r, 0.0) > 0.95),
    Claim("abl_toplayer", "Sec4.1", "capture_degrades_as_writers_go_cold",
          lambda r: _capture(r, 0.5) <= _capture(r, 0.0)),
]

#: the smaller size each paper experiment's claims also run at
SMALL = {
    "fig2": dict(num_nodes=8, duration=40.0, settle=30.0),
    "fig7": dict(num_nodes=16, duration=60.0),
    "fig8": dict(hint_schedules=((0.95, 0.90),), num_nodes=16,
                 duration=120.0, switch_time=60.0),
    "tab2": dict(writer_counts=(4,), num_nodes=16),
    "fig9": dict(max_top_layer=6, num_nodes=16),
    "tab3": dict(duration=80.0, num_nodes=16),
    "fig10": dict(duration=60.0, num_nodes=12),
}


@functools.lru_cache(maxsize=None)
def result_at(name: str, size: str) -> Any:
    return run(name, **(SMALL[name] if size == "small" else {}))


@pytest.mark.parametrize("claim, size", [
    pytest.param(c, size, id=f"{c.experiment}-{c.artefact}-{c.name}-{size}")
    for c in CLAIMS
    for size in (("paper", "small") if c.experiment in SMALL else ("paper",))])
def test_claim(claim, size):
    assert claim.predicate(result_at(claim.experiment, size)), (
        f"{claim.experiment} ({claim.artefact}): {claim.name} fails at "
        f"{size} size")


def test_every_paper_experiment_and_ablation_states_its_claims():
    paper = {"fig2", "fig7", "fig8", "tab2", "fig9", "tab3", "fig10"}
    ablations = {"abl_policies", "abl_suppression", "abl_toplayer"}
    assert {c.experiment for c in CLAIMS} == paper | ablations
    assert set(SMALL) == paper
    assert len({c.name for c in CLAIMS}) == len(CLAIMS)


@pytest.mark.parametrize("size, samples", [("small", 12), ("paper", 20)])
def test_fig7_samples_cover_the_run(size, samples):
    for panel in result_at("fig7", size):
        assert len(panel.sample_times) == samples


def test_fig7_report_contains_the_series():
    text = format_report(_panel(result_at("fig7", "small"), 0.95))
    assert "view from the user" in text
    assert "lowest user-view level" in text


class TestFig9:
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
