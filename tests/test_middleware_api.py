"""Integration tests for the per-node middleware and the Table-1 developer API."""

from __future__ import annotations

import pytest

from repro.core.adaptive import AutomaticController, HintBasedController, OnDemandController
from repro.core.api import IdeaAPI
from repro.core.config import AdaptationMode, IdeaConfig, MetricWeights, ResolutionStrategy
from repro.core.deployment import DeploymentBuilder
from repro.core.policies import PriorityBasedPolicy, UserIdBasedPolicy


def deployment_with(mode=AdaptationMode.HINT_BASED, hint=0.9, **kwargs):
    deployment = DeploymentBuilder(num_nodes=8, seed=9).build()
    kwargs.setdefault("background_period", None)
    config = IdeaConfig(mode=mode, hint_level=hint, **kwargs)
    deployment.register_object("obj", config, start_background=False)
    return deployment


class TestMiddlewareWriteRead:
    def test_write_returns_detection_outcome(self):
        deployment = deployment_with()
        outcome = deployment.middleware("obj", "n00").write("hello", metadata_delta=1.0)
        assert outcome is not None
        assert outcome.node_id == "n00"
        assert outcome.object_id == "obj"

    def test_write_heats_overlay(self):
        deployment = deployment_with()
        deployment.middleware("obj", "n00").write("hello")
        assert "n00" in deployment.top_layer("obj")

    def test_read_returns_content_and_level(self):
        deployment = deployment_with()
        mw = deployment.middleware("obj", "n00")
        mw.write("hello")
        result = mw.read()
        assert result.content == ["hello"]
        assert 0.0 <= result.level <= 1.0
        assert result.acceptable

    def test_quiet_read_does_not_run_detection(self):
        deployment = deployment_with()
        mw = deployment.middleware("obj", "n00")
        mw.write("x")
        runs = mw.detection.detections_run
        mw.read(new_snapshot=False, quiet_threshold=1000.0)
        assert mw.detection.detections_run == runs

    def test_stale_quiet_read_triggers_detection(self):
        deployment = deployment_with()
        mw = deployment.middleware("obj", "n00")
        mw.write("x")
        deployment.run(until=50.0)
        runs = mw.detection.detections_run
        mw.read(new_snapshot=False, quiet_threshold=10.0)
        assert mw.detection.detections_run == runs + 1

    def test_current_level_drops_after_peer_divergence(self):
        deployment = deployment_with()
        deployment.middleware("obj", "n00").write("a", metadata_delta=1.0)
        deployment.run(until=5.0)
        level_before = deployment.middleware("obj", "n00").current_level()
        deployment.middleware("obj", "n01").write("b", metadata_delta=1.0)
        deployment.run(until=10.0)
        level_after = deployment.middleware("obj", "n00").current_level()
        assert level_after < level_before


class TestMiddlewareAdaptation:
    def test_hint_violation_triggers_active_resolution(self):
        deployment = deployment_with(hint=0.99)
        for node in ("n00", "n01", "n02"):
            deployment.middleware("obj", node).write(f"update from {node}",
                                                     metadata_delta=5.0)
            deployment.run(until=deployment.sim.now + 3.0)
        deployment.run(until=deployment.sim.now + 20.0)
        resolved = [r for r in deployment.objects["obj"].resolutions if not r.aborted]
        assert resolved, "expected at least one active resolution under a strict hint"

    def test_no_resolution_when_hint_disabled(self):
        deployment = deployment_with(hint=0.0)
        for node in ("n00", "n01"):
            deployment.middleware("obj", node).write(f"from {node}", metadata_delta=5.0)
            deployment.run(until=deployment.sim.now + 3.0)
        deployment.run(until=deployment.sim.now + 20.0)
        assert not [r for r in deployment.objects["obj"].resolutions if not r.aborted]

    def test_demand_active_resolution(self):
        deployment = deployment_with(mode=AdaptationMode.ON_DEMAND, hint=0.0)
        deployment.middleware("obj", "n00").write("a")
        deployment.run(until=3.0)
        deployment.middleware("obj", "n01").write("b")
        deployment.run(until=6.0)
        assert deployment.middleware("obj", "n00").demand_active_resolution()
        deployment.run(until=20.0)
        assert [r for r in deployment.objects["obj"].resolutions if not r.aborted]

    def test_complain_raises_hint(self):
        deployment = deployment_with(hint=0.9)
        mw = deployment.middleware("obj", "n00")
        mw.write("x")
        mw.complain()
        assert mw.controller.hint_level > 0.9

    def test_automatic_mode_requires_background_period(self):
        # The automatic controller cannot exist without a background period;
        # registration fails fast rather than producing a broken middleware.
        with pytest.raises(ValueError):
            deployment_with(mode=AdaptationMode.AUTOMATIC, hint=0.0,
                            background_period=None)

    def test_complain_rejected_in_automatic_mode(self):
        deployment = deployment_with(mode=AdaptationMode.AUTOMATIC, hint=0.0,
                                     background_period=30.0)
        with pytest.raises(TypeError):
            deployment.middleware("obj", "n00").complain()

    def test_controller_matches_mode(self):
        for mode, cls in ((AdaptationMode.ON_DEMAND, OnDemandController),
                          (AdaptationMode.HINT_BASED, HintBasedController)):
            deployment = deployment_with(mode=mode)
            assert isinstance(deployment.middleware("obj", "n00").controller, cls)

    def test_cooldown_limits_auto_resolutions(self):
        deployment = deployment_with(hint=0.99)
        mw = deployment.middleware("obj", "n00")
        mw.write("a")
        assert mw.trigger_active_resolution(auto=True) in (True, False)
        first_count = mw.resolutions_triggered
        assert not mw.trigger_active_resolution(auto=True)
        assert mw.resolutions_triggered == first_count


class TestIdeaAPI:
    def build(self):
        deployment = deployment_with(hint=0.9)
        api = IdeaAPI(deployment, "obj", node_id="n00")
        return deployment, api

    def test_unknown_object_rejected(self):
        deployment = deployment_with()
        with pytest.raises(KeyError):
            IdeaAPI(deployment, "ghost")

    def test_unknown_node_rejected(self):
        deployment = deployment_with()
        with pytest.raises(KeyError):
            IdeaAPI(deployment, "obj", node_id="not-a-node")

    def test_set_consistency_metric_applies_to_all_nodes(self):
        deployment, api = self.build()
        spec = api.set_consistency_metric(10, 20, 30)
        assert spec.max_order == 20
        for mw in deployment.objects["obj"].middlewares.values():
            assert mw.detection.metric.max_staleness == 30

    def test_set_weight_normalisation_and_propagation(self):
        deployment, api = self.build()
        api.set_weight(0.4, 0.0, 0.6)
        for mw in deployment.objects["obj"].middlewares.values():
            assert mw.detection.weights.order == 0.0

    def test_set_resolution_changes_policy(self):
        deployment, api = self.build()
        api.set_resolution(3, priorities={"n00": 5})
        assert isinstance(deployment.middleware("obj", "n01").policy, PriorityBasedPolicy)
        api.set_resolution(2)
        assert isinstance(deployment.middleware("obj", "n01").policy, UserIdBasedPolicy)

    def test_set_hint_updates_controllers(self):
        deployment, api = self.build()
        api.set_hint(0.8)
        assert deployment.middleware("obj", "n03").controller.hint_level == 0.8

    def test_set_hint_validation(self):
        _, api = self.build()
        with pytest.raises(ValueError):
            api.set_hint(2.0)

    @pytest.mark.parametrize("mode", [AdaptationMode.HINT_BASED,
                                      AdaptationMode.ON_DEMAND])
    @pytest.mark.parametrize("level", [1.5, -0.2, float("nan")])
    def test_middleware_set_hint_refuses_a_level_outside_0_1(self, mode, level):
        deployment = deployment_with(mode=mode, hint=0.5)
        mw = deployment.middleware("obj", "n00")
        with pytest.raises(ValueError):
            mw.set_hint(level)
        threshold = ("hint_level" if mode is AdaptationMode.HINT_BASED
                     else "learned_threshold")
        assert getattr(mw.controller, threshold) == 0.5
        mw.set_hint(1.0)
        assert getattr(mw.controller, threshold) == 1.0

    def test_demand_active_resolution_routes_to_local_node(self):
        deployment, api = self.build()
        deployment.middleware("obj", "n00").write("x")
        deployment.run(until=2.0)
        assert api.demand_active_resolution()

    def test_set_background_freq_converts_to_period(self):
        deployment, api = self.build()
        period = api.set_background_freq(0.05)
        assert period == pytest.approx(20.0)
        assert deployment.objects["obj"].config.background_period == pytest.approx(20.0)

    def test_set_background_freq_starts_rounds_on_an_unscheduled_object(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=9).build()
        managed = deployment.register_object(
            "obj", IdeaConfig(hint_level=0.0, background_period=None))
        assert managed.background_timer is None
        assert IdeaAPI(deployment, "obj").set_background_freq(0.5) == 2.0
        deployment.middleware("obj", "n00").write("a")
        deployment.middleware("obj", "n01").write("b")
        deployment.run(until=30.0)
        assert managed.background_timer is not None
        assert managed.resolutions

    def test_set_background_freq_restarts_a_cancelled_schedule(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=9).build()
        managed = deployment.register_object(
            "obj", IdeaConfig(hint_level=0.0, background_period=5.0))
        deployment.middleware("obj", "n00").write("a")
        deployment.run(until=12.0)
        managed.background_cancel()
        started = managed.background_rounds_started
        deployment.run(until=30.0)
        assert managed.background_rounds_started == started
        IdeaAPI(deployment, "obj").set_background_freq(0.2)
        deployment.run(until=50.0)
        assert managed.background_rounds_started > started

    def test_set_background_freq_keeps_a_running_schedule(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=9).build()
        managed = deployment.register_object(
            "obj", IdeaConfig(hint_level=0.0, background_period=5.0))
        timer = managed.background_timer
        deployment.middleware("obj", "n00").write("a")
        IdeaAPI(deployment, "obj").set_background_freq(1.0)
        deployment.run(until=10.5)
        assert managed.background_timer is timer
        # first tick at 5 s on the old period, then one a second
        assert managed.background_rounds_started == 6

    def test_set_background_freq_validation(self):
        _, api = self.build()
        with pytest.raises(ValueError):
            api.set_background_freq(0)

    def test_current_level_and_top_layer(self):
        deployment, api = self.build()
        deployment.middleware("obj", "n00").write("x")
        assert 0.0 <= api.current_level() <= 1.0
        assert "n00" in api.top_layer()
