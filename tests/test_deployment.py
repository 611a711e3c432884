"""Integration tests for the deployment wiring."""

from __future__ import annotations

import pytest

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder


def automatic_config(period=20.0):
    return IdeaConfig(mode=AdaptationMode.AUTOMATIC, background_period=period)


class TestRegistration:
    def test_register_creates_middleware_per_participant(self, hint_config):
        deployment = DeploymentBuilder(num_nodes=6, seed=1).build()
        managed = deployment.register_object("obj", hint_config,
                                             participants=["n00", "n01"],
                                             start_background=False)
        assert set(managed.middlewares) == {"n00", "n01"}

    def test_register_defaults_to_all_nodes(self, hint_config):
        deployment = DeploymentBuilder(num_nodes=5, seed=1).build()
        managed = deployment.register_object("obj", hint_config, start_background=False)
        assert len(managed.middlewares) == 5

    def test_duplicate_registration_rejected(self, hint_config):
        deployment = DeploymentBuilder(num_nodes=4, seed=1).build()
        deployment.register_object("obj", hint_config, start_background=False)
        with pytest.raises(ValueError):
            deployment.register_object("obj", hint_config, start_background=False)

    def test_multiple_objects_have_independent_overlays(self, hint_config):
        deployment = DeploymentBuilder(num_nodes=6, seed=1).build()
        deployment.register_object("a", hint_config, start_background=False)
        deployment.register_object("b", hint_config, start_background=False)
        deployment.middleware("a", "n00").write("x")
        deployment.middleware("b", "n01").write("y")
        assert deployment.top_layer("a") == ["n00"]
        assert deployment.top_layer("b") == ["n01"]


class TestSamplingAndAccounting:
    def test_perceived_and_ground_truth_levels(self, hint_config):
        deployment = DeploymentBuilder(num_nodes=6, seed=2).build()
        deployment.register_object("obj", hint_config, start_background=False)
        deployment.middleware("obj", "n00").write("a", metadata_delta=1.0)
        deployment.run(until=3.0)
        deployment.middleware("obj", "n01").write("b", metadata_delta=1.0)
        deployment.run(until=6.0)
        perceived = deployment.perceived_levels("obj", ["n00", "n01"])
        truth = deployment.ground_truth_levels("obj", ["n00", "n01"])
        assert set(perceived) == {"n00", "n01"}
        for level in list(perceived.values()) + list(truth.values()):
            assert 0.0 <= level <= 1.0

    def test_sample_levels_is_worst_and_mean(self, hint_config):
        deployment = DeploymentBuilder(num_nodes=4, seed=2).build()
        deployment.register_object("obj", hint_config, start_background=False)
        deployment.middleware("obj", "n00").write("a")
        worst, avg = deployment.sample_levels("obj", ["n00", "n01"])
        levels = deployment.perceived_levels("obj", ["n00", "n01"])
        assert worst == min(levels.values()) <= avg
        assert avg == sum(levels.values()) / 2

    def test_message_accounting_by_protocol(self, hint_config):
        deployment = DeploymentBuilder(num_nodes=6, seed=2).build()
        deployment.register_object("obj", hint_config, start_background=False)
        deployment.middleware("obj", "n00").write("a")
        deployment.run(until=2.0)
        deployment.middleware("obj", "n01").write("b")
        deployment.run(until=4.0)
        assert deployment.detection_messages() >= 1
        assert deployment.idea_messages() >= deployment.detection_messages()

    def test_writes_counter_in_trace(self, hint_config):
        deployment = DeploymentBuilder(num_nodes=4, seed=2).build()
        deployment.register_object("obj", hint_config, start_background=False)
        deployment.middleware("obj", "n00").write("a")
        deployment.middleware("obj", "n00").write("b")
        assert deployment.trace.count("writes.obj") == 2


class TestBackgroundScheduling:
    def test_background_rounds_run_periodically(self):
        deployment = DeploymentBuilder(num_nodes=6, seed=4).build()
        deployment.register_object("obj", automatic_config(period=10.0),
                                   participants=["n00", "n01", "n02"])
        deployment.middleware("obj", "n00").write("seed update")
        deployment.run(until=45.0)
        assert deployment.objects["obj"].background_rounds >= 3

    def test_no_background_when_period_none(self, hint_config):
        deployment = DeploymentBuilder(num_nodes=4, seed=4).build()
        deployment.register_object("obj", hint_config)  # period None in fixture
        deployment.middleware("obj", "n00").write("x")
        deployment.run(until=60.0)
        assert deployment.objects["obj"].background_rounds == 0

    def test_run_background_round_skipped_without_top_layer(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=4).build()
        deployment.register_object("obj", automatic_config(), start_background=False)
        assert deployment.run_background_round("obj") is None

    def test_background_round_converges_writers(self):
        deployment = DeploymentBuilder(num_nodes=6, seed=4).build()
        deployment.register_object("obj", automatic_config(period=15.0),
                                   participants=["n00", "n01"])
        deployment.middleware("obj", "n00").write("a", metadata_delta=1.0)
        deployment.middleware("obj", "n01").write("b", metadata_delta=1.0)
        deployment.run(until=40.0)
        vec0 = deployment.stores["n00"].replica("obj").vector.counts()
        vec1 = deployment.stores["n01"].replica("obj").vector.counts()
        assert vec0 == vec1


class TestOverlayServices:
    def test_start_overlay_services_runs_ransub(self, hint_config):
        deployment = DeploymentBuilder(num_nodes=10, seed=5,
                                       ransub_period=5.0).build()
        deployment.register_object("obj", hint_config, start_background=False)
        deployment.start_overlay_services()
        deployment.run(until=16.0)
        assert deployment.ransub.rounds_completed == 3
        assert deployment.overlay_messages() > 0

    def test_ransub_is_built_but_idle_until_started(self, hint_config):
        deployment = DeploymentBuilder(num_nodes=10, seed=5,
                                       ransub_period=5.0).build()
        deployment.register_object("obj", hint_config, start_background=False)
        deployment.run(until=16.0)
        assert deployment.ransub is not None
        assert deployment.ransub.rounds_completed == 0
        assert deployment.network.messages_sent("overlay.ransub") == 0

    def test_gossip_enabled_deployment(self, hint_config):
        deployment = DeploymentBuilder(num_nodes=6, seed=5,
                                       use_gossip=True).build()
        deployment.register_object("obj", hint_config, start_background=False)
        deployment.middleware("obj", "n00").write("only here", metadata_delta=1.0)
        deployment.start_overlay_services()
        deployment.run(until=25.0)
        # The divergent bottom-layer nodes exchange digests and notice the gap.
        assert deployment.gossip.rounds_completed >= 2
        assert deployment.gossip.detection_count("obj") > 0
