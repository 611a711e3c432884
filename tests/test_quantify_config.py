"""Unit tests for Formula 1 quantification and the configuration objects."""

from __future__ import annotations

import ast
import dataclasses
import math
from pathlib import Path

import pytest

from repro.core.config import (
    AdaptationMode,
    ConsistencyMetricSpec,
    IdeaConfig,
    MetricWeights,
    ResolutionStrategy,
)
from repro.core.quantify import (
    average_level,
    consistency_level,
    level_as_percent,
    normalized_errors,
    worst_level,
)
from repro.versioning.extended_vector import ErrorTriple
from repro.worlds.schema import CONFIG

ROOT = Path(__file__).resolve().parents[1]


METRIC = ConsistencyMetricSpec(max_numerical=10, max_order=10, max_staleness=10)
EQUAL = MetricWeights.equal()


class TestNormalizedErrors:
    def test_zero_triple_normalises_to_zero(self):
        assert normalized_errors(ErrorTriple(), METRIC) == (0.0, 0.0, 0.0)

    def test_errors_divided_by_maxima(self):
        n, o, s = normalized_errors(ErrorTriple(5, 2, 8), METRIC)
        assert (n, o, s) == (0.5, 0.2, 0.8)

    def test_errors_above_max_clamp_to_one(self):
        n, o, s = normalized_errors(ErrorTriple(100, 100, 100), METRIC)
        assert (n, o, s) == (1.0, 1.0, 1.0)


class TestConsistencyLevel:
    def test_perfect_consistency_is_one(self):
        assert consistency_level(ErrorTriple(), METRIC, EQUAL) == 1.0

    def test_saturated_errors_give_zero(self):
        assert consistency_level(ErrorTriple(100, 100, 100), METRIC, EQUAL) == 0.0

    def test_paper_figure4_value(self):
        """Formula 1 on the Figure 4 numbers: (7/10+7/10+8/10)/3."""
        level = consistency_level(ErrorTriple(3, 3, 2), METRIC, EQUAL)
        assert level == pytest.approx((0.7 + 0.7 + 0.8) / 3)

    def test_more_error_means_lower_level(self):
        low = consistency_level(ErrorTriple(1, 1, 1), METRIC, EQUAL)
        high = consistency_level(ErrorTriple(5, 5, 5), METRIC, EQUAL)
        assert high < low

    def test_zero_weight_removes_metric(self):
        weights = MetricWeights(numerical=0.5, order=0.0, staleness=0.5)
        level = consistency_level(ErrorTriple(0, 100, 0), METRIC, weights)
        assert level == 1.0

    def test_unnormalised_weights_are_normalised(self):
        a = consistency_level(ErrorTriple(5, 0, 0), METRIC, MetricWeights(1, 1, 1))
        b = consistency_level(ErrorTriple(5, 0, 0), METRIC, MetricWeights(10, 10, 10))
        assert a == pytest.approx(b)

    def test_result_always_in_unit_interval(self):
        for triple in (ErrorTriple(0, 0, 0), ErrorTriple(3, 7, 100),
                       ErrorTriple(1e9, 0, 0)):
            level = consistency_level(triple, METRIC, EQUAL)
            assert 0.0 <= level <= 1.0


class TestLevelHelpers:
    def test_percent(self):
        assert level_as_percent(0.943) == pytest.approx(94.3)

    def test_percent_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            level_as_percent(1.5)

    def test_worst_and_average(self):
        levels = [0.9, 0.95, 0.85]
        assert worst_level(levels) == 0.85
        assert average_level(levels) == pytest.approx(0.9)

    def test_empty_collections_raise(self):
        with pytest.raises(ValueError):
            worst_level([])
        with pytest.raises(ValueError):
            average_level([])


class TestMetricWeights:
    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            MetricWeights(0, 0, 0)

    def test_normalized_sums_to_one(self):
        w = MetricWeights(0.4, 0.0, 0.6).normalized()
        assert sum(w.as_tuple()) == pytest.approx(1.0)

    def test_equal_helper(self):
        assert MetricWeights.equal().as_tuple() == pytest.approx((1 / 3, 1 / 3, 1 / 3))


class TestIdeaConfig:
    def test_defaults_valid(self):
        IdeaConfig()

    def test_the_api_refuses_non_finite_settings_and_keeps_the_old_ones(self):
        from repro.core.api import IdeaAPI
        from repro.core.deployment import DeploymentBuilder

        deployment = DeploymentBuilder(num_nodes=2, seed=1).build()
        deployment.register_object("obj", IdeaConfig(background_period=None))
        api = IdeaAPI(deployment, "obj")
        middleware = deployment.middleware("obj", deployment.node_ids[0])
        middleware.write(metadata_delta=1.0)
        deployment.run(until=1.0)
        before = middleware.detection.current_level()
        for call in (lambda: api.set_weight(math.nan, 1, 1),
                     lambda: api.set_weight(math.inf, 1, 1),
                     lambda: api.set_consistency_metric(math.nan, 60, 60)):
            with pytest.raises(ValueError):
                call()
        assert middleware.detection.current_level() == before

    def test_mode_enum_values(self):
        assert AdaptationMode("hint_based") is AdaptationMode.HINT_BASED
        assert ResolutionStrategy(2) is ResolutionStrategy.USER_ID_BASED


def _config_keywords_passed():
    """Keywords given to ``IdeaConfig(...)`` / ``replace(...)`` calls in the
    program, its benchmarks and its examples (read from source, not run)."""
    passed = set()
    for top in ("src", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(
                    func, "attr", None)
                if name in ("IdeaConfig", "replace"):
                    passed.update(k.arg for k in node.keywords if k.arg)
    return passed


def test_every_config_field_has_a_second_value_somewhere():
    """A knob is a field only if a world document or a caller sets it;
    one value in use everywhere makes it a constant instead."""
    passed = _config_keywords_passed()
    unset = [f.name for f in dataclasses.fields(IdeaConfig)
             if f.name not in CONFIG.fields and f.name not in passed]
    assert unset == []
