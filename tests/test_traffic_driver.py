"""Tests for the TrafficDriver: lazy scheduling, determinism, composition."""

from __future__ import annotations

import math

import pytest

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder
from repro.core.detection import (VersionDigest, build_reference,
                                  consistency_level)
from repro.runtime.events import ClientOpCompleted
from repro.scenarios import FaultPlan
from repro.workloads import (
    ClientPopulation,
    ConstantRate,
    OpMix,
    TrafficDriver,
    UniformPopularity,
    ZipfPopularity,
)


def quiet_config(hint_level: float = 0.0) -> IdeaConfig:
    return IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=hint_level,
                      background_period=None)


def build_deployment(num_nodes=6, num_objects=3, seed=13, **traffic_kwargs):
    builder = DeploymentBuilder(num_nodes=num_nodes, seed=seed)
    for i in range(num_objects):
        builder.add_object(f"obj{i:02d}", quiet_config(), start_background=False)
    if traffic_kwargs:
        builder.add_traffic(**traffic_kwargs)
    return builder.start_overlay_services().build()


def population(num_clients=8, num_objects=3, read_fraction=0.75, rate=4.0,
               **kwargs) -> ClientPopulation:
    return ClientPopulation(
        name=kwargs.pop("name", "web"), num_clients=num_clients,
        popularity=ZipfPopularity(num_objects, 0.99),
        mix=OpMix(read_fraction), schedule=ConstantRate(rate), **kwargs)


class TestTrafficDriver:
    def test_builder_pass_attaches_and_runs(self):
        deployment = build_deployment(populations=[population()], duration=20.0)
        driver = deployment.traffic
        assert isinstance(driver, TrafficDriver)
        driver.run()
        counters = driver.counters()
        assert counters["ops_issued"] > 0
        assert counters["ops_issued"] == (counters["reads_issued"]
                                          + counters["writes_issued"])
        # ~75/25 read mix
        assert 0.6 < counters["reads_issued"] / counters["ops_issued"] < 0.9
        assert counters["writes_applied"] > 0

    def test_max_ops_cap_is_exact(self):
        deployment = build_deployment(populations=[population()], max_ops=200)
        deployment.traffic.run()
        assert deployment.traffic.ops_issued == 200
        assert deployment.traffic.done

    def test_lazy_scheduling_memory_independent_of_op_count(self):
        peaks = []
        for max_ops in (100, 400):
            deployment = build_deployment(populations=[population()],
                                          max_ops=max_ops)
            deployment.traffic.run()
            peaks.append(deployment.traffic.peak_pending)
        # one pending arrival per stream, regardless of how many ops run
        assert peaks[0] == peaks[1] == 8

    def test_seeded_replay_is_bit_identical(self):
        def run_once():
            deployment = build_deployment(populations=[population()],
                                          max_ops=300)
            deployment.traffic.run()
            return (deployment.traffic.counters(),
                    deployment.sim.events_processed,
                    deployment.sim.now)

        assert run_once() == run_once()

    def test_built_traffic_runs_with_the_deployment(self):
        deployment = build_deployment(populations=[population()], max_ops=60)
        # started by the build: advancing the deployment alone drives it
        deployment.run(until=200.0)
        assert deployment.traffic.ops_issued == 60
        assert deployment.traffic.done

    def test_second_add_traffic_call_is_rejected(self):
        builder = DeploymentBuilder(num_nodes=4, seed=5).add_traffic(
            [population(num_objects=1)], max_ops=50)
        with pytest.raises(ValueError, match="traffic already added"):
            builder.add_traffic([population(num_objects=1, name="batch")],
                                max_ops=80)
        builder.add_object("obj00", quiet_config(), start_background=False)
        driver = builder.build().traffic
        # the first call's load is the one built
        assert [p.name for p in driver.populations] == ["web"]

    def test_fault_plan_composition_counts_downtime(self):
        plan = FaultPlan()
        for node in ("n00", "n01", "n02"):
            plan.crash(node, 2.0)
            plan.recover(node, 8.0)
        deployment = build_deployment(
            num_nodes=4,
            populations=[population(num_clients=8, rate=8.0)],
            duration=12.0, fault_plan=plan)
        deployment.traffic.run()
        driver = deployment.traffic
        assert driver.injector is not None
        assert driver.injector.crashes_applied == 3
        assert driver.skipped_down > 0            # ops hit crashed homes
        assert driver.ops_issued > driver.skipped_down
        assert len(deployment.alive_node_ids()) == 4

    def test_metrics_collector_aggregates_over_bus(self):
        deployment = build_deployment(
            populations=[population()], max_ops=400, collect_metrics=True)
        deployment.traffic.run()
        metrics = deployment.traffic.metrics
        assert metrics.ops == 400
        assert metrics.reads + metrics.writes == 400
        assert 0.0 <= metrics.mean_level <= 1.0
        assert metrics.mean_read_staleness >= 0.0
        assert metrics.staleness_max >= metrics.mean_read_staleness
        snapshot = metrics.snapshot()
        assert snapshot["ops"] == 400

    def test_per_op_events_only_published_when_probed(self):
        deployment = build_deployment(populations=[population()], max_ops=50)
        seen = []
        deployment.bus.subscribe(ClientOpCompleted, seen.append)
        deployment.traffic.run()
        assert len(seen) == 50
        kinds = {e.kind for e in seen}
        assert kinds <= {"read", "write"}
        assert all(not math.isnan(e.level) or e.kind == "write" for e in seen)

    def test_closed_loop_population_drives_ops(self):
        closed = ClientPopulation(
            name="sessions", num_clients=6, model="closed", think_time=0.5,
            popularity=UniformPopularity(3), mix=OpMix(0.5))
        deployment = build_deployment(populations=[closed], duration=15.0)
        deployment.traffic.run()
        assert deployment.traffic.ops_issued > 50
        assert deployment.traffic.peak_pending == 6

    def test_popularity_arity_must_match_objects(self):
        with pytest.raises(ValueError, match="popularity covers"):
            build_deployment(populations=[population(num_objects=5)],
                             max_ops=10)

    def test_unknown_home_nodes_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            build_deployment(populations=[population(nodes=["ghost"])],
                             max_ops=10)

    def test_unbounded_run_needs_until(self):
        deployment = build_deployment(populations=[population()])
        with pytest.raises(ValueError, match="until"):
            deployment.traffic.run()

    def test_driver_requires_registered_objects(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=5).build()
        with pytest.raises(ValueError, match="no registered objects"):
            TrafficDriver(deployment, [population()])

    def test_describe_mentions_populations_and_window(self):
        deployment = build_deployment(populations=[population()], duration=30.0)
        text = deployment.traffic.describe()
        assert "web" in text and "8" in text and "30" in text


class TestMiddlewareFastReadPath:
    def build(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=3).build()
        deployment.register_object("doc", quiet_config(),
                                   start_background=False)
        return deployment, deployment.middleware("doc", "n00")

    def test_include_content_false_skips_materialisation(self):
        deployment, middleware = self.build()
        middleware.write("hello", metadata_delta=1.0)
        full = middleware.read(new_snapshot=False)
        fast = middleware.read(new_snapshot=False, include_content=False)
        assert full.content == ["hello"]
        assert fast.content == []
        assert fast.level == full.level


class TestDetectionEnvelopeEquivalence:
    """The incremental reference envelope must match a full rebuild."""

    def fresh_level(self, detection) -> float:
        local = VersionDigest.from_replica(detection.replica,
                                           detection.node.clock.now)
        reference = build_reference([local] + list(detection.peer_digests.values()))
        triple = reference.triple_for(local)
        return consistency_level(triple, detection.metric, detection.weights)

    def sample_all(self, deployment):
        for managed in deployment.objects.values():
            for middleware in managed.middlewares.values():
                level = middleware.detection.current_level()
                expected = self.fresh_level(middleware.detection)
                assert level == pytest.approx(expected, abs=1e-9)

    def test_envelope_matches_rebuild_under_traffic(self):
        deployment = build_deployment(populations=[population()], max_ops=300)
        deployment.traffic.run()
        self.sample_all(deployment)

    def test_envelope_survives_peer_eviction(self):
        deployment = build_deployment(populations=[population()], max_ops=200)
        deployment.traffic.run()
        deployment.crash_node("n01")
        self.sample_all(deployment)
        deployment.recover_node("n01")
        self.sample_all(deployment)
