"""Unit tests for the adaptation controllers."""

from __future__ import annotations

import pytest

from repro.core.adaptive import (
    AutomaticController,
    FrequencyBounds,
    HintBasedController,
    OnDemandController,
)
from repro.core.config import IdeaConfig, MetricWeights


def config(**kwargs):
    kwargs.setdefault("hint_level", 0.9)
    kwargs.setdefault("hint_delta", 0.02)
    return IdeaConfig(**kwargs)


class TestOnDemandController:
    def test_no_resolution_without_demand_or_threshold(self):
        controller = OnDemandController(config(hint_level=0.0))
        assert not controller.should_resolve(0.5)

    def test_explicit_demand_triggers_once(self):
        controller = OnDemandController(config(hint_level=0.0))
        controller.demand_resolution()
        assert controller.should_resolve(1.0)
        assert controller.consume_demand()
        assert not controller.consume_demand()

    def test_complaint_learns_new_threshold(self):
        controller = OnDemandController(config(hint_level=0.0, hint_delta=0.05))
        record = controller.complain(time=10.0, level=0.8)
        assert record.new_threshold == pytest.approx(0.85)
        assert controller.should_resolve(0.84)
        assert not controller.should_resolve(0.86) or controller.consume_demand()

    def test_complaint_never_lowers_threshold(self):
        controller = OnDemandController(config(hint_level=0.9))
        controller.complain(time=1.0, level=0.2)
        assert controller.learned_threshold >= 0.9

    def test_complaint_with_reweighting(self):
        controller = OnDemandController(config(hint_level=0.0))
        new_weights = MetricWeights(0.6, 0.2, 0.2)
        record = controller.complain(time=1.0, level=0.7, new_weights=new_weights)
        assert record.reweighted
        assert controller.weights is new_weights

    def test_threshold_capped_at_one(self):
        controller = OnDemandController(config(hint_level=0.0, hint_delta=0.5))
        controller.complain(time=1.0, level=0.9)
        assert controller.learned_threshold <= 1.0


class TestHintBasedController:
    def test_resolve_below_hint_only(self):
        controller = HintBasedController(config(hint_level=0.9))
        assert controller.should_resolve(0.85)
        assert not controller.should_resolve(0.95)

    def test_zero_hint_disables(self):
        controller = HintBasedController(config(hint_level=0.0))
        assert not controller.should_resolve(0.01)

    def test_set_hint_at_runtime(self):
        controller = HintBasedController(config(hint_level=0.95))
        controller.set_hint(100.0, 0.90)
        assert controller.hint_level == 0.90
        assert controller.hint_history[-1] == (100.0, 0.90)

    def test_invalid_hint_rejected(self):
        controller = HintBasedController(config(hint_level=0.9))
        with pytest.raises(ValueError):
            controller.set_hint(1.0, 1.5)

    def test_complaint_raises_hint_by_delta(self):
        """L1 + Δ becomes the new desired level (paper Section 2)."""
        controller = HintBasedController(config(hint_level=0.90, hint_delta=0.02))
        record = controller.complain(time=5.0, level=0.89)
        assert controller.hint_level == pytest.approx(0.92)
        assert record.new_threshold == pytest.approx(0.92)

    def test_repeated_complaints_keep_raising(self):
        controller = HintBasedController(config(hint_level=0.90, hint_delta=0.05))
        controller.complain(1.0, 0.89)
        controller.complain(2.0, 0.90)
        assert controller.hint_level == pytest.approx(1.0)


class TestAutomaticController:
    def test_requires_positive_period(self):
        with pytest.raises(ValueError):
            AutomaticController(config(background_period=None))

    def test_never_resolves_on_level(self):
        controller = AutomaticController(config(background_period=20.0))
        assert not controller.should_resolve(0.0)

    def test_overselling_speeds_up_and_learns_bound(self):
        controller = AutomaticController(config(background_period=40.0))
        new_period = controller.report_overselling(10.0)
        assert new_period < 40.0
        assert controller.bounds.max_period == 40.0

    def test_underselling_slows_down_and_learns_bound(self):
        controller = AutomaticController(config(background_period=10.0))
        new_period = controller.report_underselling(10.0)
        assert new_period > 10.0
        assert controller.bounds.min_period == 10.0

    def test_learned_bounds_clamp_future_adjustments(self):
        controller = AutomaticController(config(background_period=40.0))
        controller.report_overselling(1.0)      # max_period = 40, period 20
        controller.report_underselling(2.0)     # wants 40, within the bound
        assert controller.report_underselling(3.0) <= 40.0

    def test_period_stops_at_one_second(self):
        controller = AutomaticController(config(background_period=3.0))
        periods = [controller.report_overselling(float(t)) for t in range(4)]
        assert periods == [1.5, AutomaticController.MIN_PERIOD,
                           AutomaticController.MIN_PERIOD,
                           AutomaticController.MIN_PERIOD]

    def test_period_stops_at_six_hundred_seconds(self):
        controller = AutomaticController(config(background_period=400.0))
        assert controller.report_underselling(1.0) == AutomaticController.MAX_PERIOD
        assert controller.report_underselling(2.0) == AutomaticController.MAX_PERIOD
        assert controller.adjustments[-1] == (2.0, 600.0, "underselling")

    def test_inconsistent_learned_bounds_yield_the_min_bound(self):
        controller = AutomaticController(config(background_period=20.0))
        controller.bounds = FrequencyBounds(min_period=50.0, max_period=30.0)
        assert controller.report_overselling(1.0) == 50.0


class TestFrequencyBounds:
    def test_clamp(self):
        bounds = FrequencyBounds(min_period=10.0, max_period=40.0)
        assert bounds.clamp(5.0) == 10.0
        assert bounds.clamp(100.0) == 40.0
        assert bounds.clamp(20.0) == 20.0
