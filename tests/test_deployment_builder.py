"""Tests for the DeploymentBuilder passes, the event-bus reporting wiring,
and background-scheduling adaptation/cancellation."""

from __future__ import annotations

import pytest

from repro.core.adaptive import AutomaticController
from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder, IdeaDeployment
from repro.runtime import ResolutionCompleted, WriteRecorded


def automatic_config(period=20.0):
    return IdeaConfig(mode=AdaptationMode.AUTOMATIC, background_period=period)


def hint_config(level=0.0):
    return IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=level,
                      background_period=None)


class TestDeploymentBuilder:
    def test_build_produces_wired_deployment(self):
        deployment = DeploymentBuilder(num_nodes=6, seed=3).build()
        assert isinstance(deployment, IdeaDeployment)
        assert len(deployment.nodes) == 6
        assert len(deployment.runtimes) == 6
        assert deployment.objects == {}

    def test_add_object_places_in_placement_pass(self):
        deployment = (DeploymentBuilder(num_nodes=5, seed=3)
                      .add_object("a", hint_config(), start_background=False)
                      .add_object("b", hint_config(),
                                  participants=["n00", "n01"],
                                  start_background=False)
                      .build())
        assert set(deployment.objects) == {"a", "b"}
        assert len(deployment.objects["a"].middlewares) == 5
        assert set(deployment.objects["b"].middlewares) == {"n00", "n01"}

    def test_start_overlay_services_pass(self):
        deployment = (DeploymentBuilder(num_nodes=6, seed=3, ransub_period=4.0)
                      .start_overlay_services()
                      .build())
        deployment.run(until=13.0)
        assert deployment.ransub.rounds_completed == 3

    @pytest.mark.parametrize("period", [0.0, -1.0, float("nan")])
    def test_a_ransub_period_that_is_not_positive_is_refused_at_build(
            self, period):
        builder = DeploymentBuilder(num_nodes=4, seed=3, ransub_period=period)
        with pytest.raises(ValueError, match="period must be positive"):
            builder.start_overlay_services().build()

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"), -0.01])
    def test_a_non_finite_or_negative_processing_delay_is_refused(self, delay):
        builder = DeploymentBuilder(num_nodes=4, seed=3,
                                    processing_delay=delay)
        with pytest.raises(ValueError, match="processing_delay"):
            builder.build()

    def test_add_object_matches_register_after_build(self):
        built = (DeploymentBuilder(num_nodes=4, seed=9)
                 .add_object("obj", hint_config(), start_background=False)
                 .build())
        late = DeploymentBuilder(num_nodes=4, seed=9).build()
        late.register_object("obj", hint_config(), start_background=False)
        built.middleware("obj", "n00").write("x", metadata_delta=1.0)
        late.middleware("obj", "n00").write("x", metadata_delta=1.0)
        built.run(until=5.0)
        late.run(until=5.0)
        assert built.top_layer("obj") == late.top_layer("obj")
        assert (built.perceived_levels("obj", ["n00", "n01"])
                == late.perceived_levels("obj", ["n00", "n01"]))

    def test_runtimes_host_many_objects(self):
        builder = DeploymentBuilder(num_nodes=8, seed=7)
        for i in range(64):
            builder.add_object(f"obj{i:03d}", hint_config(),
                               start_background=False)
        deployment = builder.build()
        for node_id, runtime in deployment.runtimes.items():
            hosted = [managed.middlewares[node_id]
                      for managed in deployment.objects.values()]
            assert len(hosted) == 64
            assert all(m.runtime is runtime for m in hosted)
        # Drive a write per object through the shared runtimes.
        for i in range(64):
            deployment.middleware(f"obj{i:03d}",
                                  deployment.node_ids[i % 8]).write(i)
        deployment.run(until=5.0)
        assert deployment.trace.count("writes.obj000") == 1
        hit_rate = deployment.runtimes["n00"].digests.hit_rate
        assert hit_rate is None or 0.0 <= hit_rate <= 1.0


class TestEventBusWiring:
    def test_writes_flow_through_bus_to_trace_and_overlay(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=2).build()
        deployment.register_object("obj", hint_config(), start_background=False)
        seen = []
        deployment.bus.subscribe(WriteRecorded, seen.append)
        deployment.middleware("obj", "n00").write("a")
        deployment.middleware("obj", "n00").write("b")
        assert deployment.trace.count("writes.obj") == 2
        assert deployment.top_layer("obj") == ["n00"]
        assert [e.node_id for e in seen] == ["n00", "n00"]

    def test_resolutions_aggregated_from_any_initiator(self):
        deployment = DeploymentBuilder(num_nodes=6, seed=2).build()
        managed = deployment.register_object(
            "obj", hint_config(), participants=["n00", "n01", "n02"],
            start_background=False)
        deployment.middleware("obj", "n00").write("a", metadata_delta=1.0)
        deployment.middleware("obj", "n01").write("b", metadata_delta=1.0)
        deployment.run(until=3.0)
        # Initiate from a node the deployment never special-cased.
        process = deployment.middleware(
            "obj", "n01").resolution.start_active_resolution()
        deployment.run(until=10.0)
        assert process.result is not None and process.result.succeeded
        assert any(r.initiator == "n01" for r in managed.resolutions)

    def test_background_rounds_count_completed_not_scheduled(self):
        deployment = DeploymentBuilder(num_nodes=6, seed=4).build()
        managed = deployment.register_object(
            "obj", automatic_config(period=10.0),
            participants=["n00", "n01", "n02"])
        deployment.middleware("obj", "n00").write("seed update")
        deployment.run(until=45.0)
        assert managed.background_rounds >= 3
        assert managed.background_rounds <= managed.background_rounds_started
        completed = [r for r in managed.resolutions if r.kind == "background"]
        assert len(completed) == managed.background_rounds

    def test_resolution_completed_events_published(self):
        deployment = DeploymentBuilder(num_nodes=5, seed=4).build()
        deployment.register_object("obj", automatic_config(period=8.0),
                                   participants=["n00", "n01"])
        events = []
        deployment.bus.subscribe(ResolutionCompleted, events.append)
        deployment.middleware("obj", "n00").write("x")
        deployment.run(until=30.0)
        assert events
        assert all(e.object_id == "obj" for e in events)


class TestBackgroundAdaptation:
    def test_period_change_reschedules_rounds(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=6).build()
        managed = deployment.register_object(
            "obj", automatic_config(period=10.0), participants=["n00", "n01"])
        deployment.middleware("obj", "n00").write("seed")
        deployment.run(until=25.0)            # rounds at 10, 20
        slow_rounds = managed.background_rounds_started
        assert slow_rounds == 2
        for middleware in managed.middlewares.values():
            controller = middleware.controller
            assert isinstance(controller, AutomaticController)
            controller.period = 2.0
        # The round queued before the change still fires at t=30; all later
        # rounds must follow the new 2 s period.
        deployment.run(until=40.0)
        fast_rounds = managed.background_rounds_started - slow_rounds
        assert fast_rounds >= 5               # ≤ 2 if the old period stuck

    def test_cancel_actually_stops_rounds(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=6).build()
        managed = deployment.register_object(
            "obj", automatic_config(period=5.0), participants=["n00", "n01"])
        deployment.middleware("obj", "n00").write("seed")
        deployment.run(until=12.0)            # rounds at 5, 10
        assert managed.background_rounds_started == 2
        managed.background_cancel()
        assert managed.background_cancel is None
        assert managed.background_timer is None
        deployment.run(until=60.0)
        # Regression: the seed's cancel only cleared the attribute and the
        # queued tick kept rescheduling itself forever.
        assert managed.background_rounds_started == 2

    def test_cancel_between_registration_and_first_round(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=6).build()
        managed = deployment.register_object(
            "obj", automatic_config(period=5.0), participants=["n00", "n01"])
        deployment.middleware("obj", "n00").write("seed")
        managed.background_cancel()
        deployment.run(until=30.0)
        assert managed.background_rounds_started == 0

    def test_no_schedule_without_period(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=6).build()
        managed = deployment.register_object("obj", hint_config())
        assert managed.background_timer is None
        assert managed.background_cancel is None
