"""Tests for the per-node runtime: event bus, digest cache, node runtime."""

from __future__ import annotations

import pytest

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder
from repro.core.detection import VersionDigest, evaluate_group
from repro.runtime import (
    DigestCache,
    EventBus,
    ResolutionCompleted,
    WriteRecorded,
)
from repro.sim.clock import ClockModel
from repro.sim.latency import LatencyModel
from repro.store.replica import Replica
from repro.versioning.extended_vector import WriterBase


@pytest.fixture
def deployment():
    return DeploymentBuilder(num_nodes=2, seed=5,
                             latency=LatencyModel.fixed(0.02),
                             clock_model=ClockModel().perfect()).build()


def hint_config(level: float = 0.0) -> IdeaConfig:
    return IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=level,
                      background_period=None)


class TestEventBus:
    def test_publish_reaches_subscribers_of_the_type(self):
        bus = EventBus()
        seen = []
        bus.subscribe(WriteRecorded, seen.append)
        event = WriteRecorded(object_id="o", node_id="n", time=1.0)
        assert bus.publish(event) == 1
        assert seen == [event]

    def test_publish_without_subscribers_is_a_noop(self):
        bus = EventBus()
        assert bus.publish(WriteRecorded(object_id="o", node_id="n", time=0.0)) == 0

    def test_other_event_types_are_not_delivered(self):
        bus = EventBus()
        seen = []
        bus.subscribe(ResolutionCompleted, seen.append)
        bus.publish(WriteRecorded(object_id="o", node_id="n", time=0.0))
        assert seen == []

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        unsubscribe = bus.subscribe(WriteRecorded, seen.append)
        unsubscribe()
        bus.publish(WriteRecorded(object_id="o", node_id="n", time=0.0))
        assert seen == []
        unsubscribe()  # idempotent

    def test_wants_reflects_subscriptions(self):
        bus = EventBus()
        assert WriteRecorded not in bus.wants
        cancel = bus.subscribe(WriteRecorded, lambda e: None)
        again = bus.subscribe(WriteRecorded, lambda e: None)
        assert WriteRecorded in bus.wants
        cancel()
        assert WriteRecorded in bus.wants
        again()
        assert WriteRecorded not in bus.wants
        cancel()  # idempotent, also once the type has no subscriber left
        later = bus.subscribe(WriteRecorded, lambda e: None)
        cancel()  # a spent unsubscribe leaves a later subscription alone
        assert WriteRecorded in bus.wants
        later()
        assert WriteRecorded not in bus.wants


class TestDigestCache:
    def test_matches_fresh_digest(self):
        replica = Replica("n00", "obj")
        replica.local_write("n00", 1.0, metadata_delta=2.0)
        replica.local_write("n01", 2.0, metadata_delta=1.5)
        cache = DigestCache()
        cached = cache.local_digest("obj", replica, now=3.0)
        fresh = VersionDigest.from_replica(replica, issued_at=3.0)
        assert cached == fresh
        # the total is not compared: both builders sum it themselves
        assert cached.total == fresh.total == 2

    def test_hit_until_replica_changes(self, deployment):
        """The revision memo is the detection service's; the cache counts
        its hits and builds only on a miss."""
        deployment.register_object("obj", hint_config(), participants=["n00"],
                                   start_background=False)
        detection = deployment.middleware("obj", "n00").detection
        cache = deployment.runtimes["n00"].digests
        detection.replica.local_write("n00", 1.0)
        hits, misses = cache.hits, cache.misses
        first = detection.local_digest()
        assert detection.local_digest() is first
        assert (cache.hits, cache.misses) == (hits + 1, misses + 1)
        detection.replica.local_write("n00", 2.0)
        assert detection.local_digest() is not first
        assert (cache.hits, cache.misses) == (hits + 1, misses + 2)

    def test_incremental_fold_after_more_writes(self):
        replica = Replica("n00", "obj")
        cache = DigestCache()
        for i in range(5):
            replica.local_write("n00", float(i + 1), metadata_delta=0.5)
            cached = cache.local_digest("obj", replica, now=float(i + 1))
            fresh = VersionDigest.from_replica(replica, issued_at=float(i + 1))
            assert cached == fresh
            assert cached.total == fresh.total == i + 1

    def test_a_cold_rebuild_pairs_the_fold_it_made(self, monkeypatch):
        """On a truncated vector each writer's pair holds the very
        ``WriterBase`` its fold returned (a fully folded writer's is the
        checkpoint itself): no second, equal summary is built."""
        replica = Replica("n00", "obj")
        for i in range(4):
            replica.local_write("n00", float(i + 1), metadata_delta=0.5)
        replica.local_write("n01", 5.0, metadata_delta=1.0)
        replica.truncate_stable({"n00": 3, "n01": 1})
        folds = []
        fold = WriterBase.fold

        def recording_fold(base, records):
            folds.append(fold(base, records))
            return folds[-1]

        monkeypatch.setattr(WriterBase, "fold", recording_fold)
        digest = DigestCache().local_digest("obj", replica, now=6.0)
        held = dict(digest.writers)
        assert [held["n00"], held["n01"]] == folds
        assert held["n00"] is folds[0] and held["n01"] is folds[1]
        assert held["n01"] is replica.vector.writer_base("n01")
        monkeypatch.undo()
        assert digest == VersionDigest.from_replica(replica, issued_at=6.0)

    def test_mark_consistent_invalidates(self):
        replica = Replica("n00", "obj")
        replica.local_write("n00", 1.0)
        cache = DigestCache()
        cache.local_digest("obj", replica, now=1.0)
        replica.mark_consistent(5.0)
        digest = cache.local_digest("obj", replica, now=6.0)
        assert digest.last_consistent_time == 5.0

    def test_objects_are_independent(self):
        a, b = Replica("n00", "a"), Replica("n00", "b")
        a.local_write("n00", 1.0, metadata_delta=1.0)
        b.local_write("n00", 1.0, metadata_delta=9.0)
        cache = DigestCache()
        assert cache.local_digest("a", a, 1.0).metadata == 1.0
        assert cache.local_digest("b", b, 1.0).metadata == 9.0


class TestNodeRuntime:
    def test_register_object_builds_middleware_over_the_runtime(
            self, deployment):
        managed = deployment.register_object("obj", hint_config(),
                                             participants=["n00"],
                                             start_background=False)
        runtime = deployment.runtimes["n00"]
        middleware = managed.middlewares["n00"]
        assert deployment.middleware("obj", "n00") is middleware
        assert middleware.runtime is runtime
        assert middleware.node is runtime.node is deployment.nodes["n00"]
        assert middleware.store is runtime.store is deployment.stores["n00"]
        assert middleware.replica is runtime.store.replica("obj")

    def test_duplicate_participant_rejected(self, deployment):
        with pytest.raises(ValueError, match="participant twice"):
            deployment.register_object("obj", hint_config(),
                                       participants=["n00", "n00"],
                                       start_background=False)
        # refused before anything was placed
        assert "obj" not in deployment.objects
        assert not deployment.stores["n00"].has_replica("obj")

    def test_duplicate_object_rejected(self, deployment):
        first = deployment.register_object("obj", hint_config(),
                                           participants=["n00"],
                                           start_background=False)
        with pytest.raises(ValueError, match="already registered"):
            deployment.register_object("obj", hint_config(),
                                       participants=["n01"],
                                       start_background=False)
        # the first registration is left as it was
        assert deployment.objects["obj"] is first
        assert set(first.middlewares) == {"n00"}
        assert not deployment.stores["n01"].has_replica("obj")

    def test_unknown_participant_rejected(self, deployment):
        with pytest.raises(KeyError, match="n99"):
            deployment.register_object("obj", hint_config(),
                                       participants=["n00", "n99"],
                                       start_background=False)
        assert "obj" not in deployment.objects

    def test_each_node_gets_its_own_runtime_over_one_bus(self, deployment):
        a, b = deployment.runtimes["n00"], deployment.runtimes["n01"]
        assert a is not b
        assert a.node is deployment.nodes["n00"] and a.node_id == "n00"
        assert b.store is deployment.stores["n01"]
        assert a.digests is not b.digests
        assert a.backoff_rng is not b.backoff_rng
        assert a.bus is b.bus is deployment.bus

    def test_objects_share_digest_cache_and_bus(self, deployment):
        runtime = deployment.runtimes["n00"]
        a, b = (deployment.register_object(
                    oid, hint_config(), participants=["n00"],
                    start_background=False).middlewares["n00"]
                for oid in ("a", "b"))
        assert a.runtime is runtime and b.runtime is runtime
        assert a.bus is b.bus is runtime.bus is deployment.bus
        assert a.detection._digest_cache is runtime.digests
        assert b.detection._digest_cache is runtime.digests

    def test_write_publishes_on_bus(self, deployment):
        middleware = deployment.register_object(
            "obj", hint_config(), participants=["n00"],
            start_background=False).middlewares["n00"]
        seen = []
        deployment.runtimes["n00"].bus.subscribe(WriteRecorded, seen.append)
        middleware.write("payload", metadata_delta=1.0)
        assert len(seen) == 1
        assert seen[0].object_id == "obj" and seen[0].node_id == "n00"

    def test_levels_identical_with_and_without_cache(self, deployment):
        # The uncached reference: digests rebuilt from the replica's vector.
        config = hint_config()
        cached = deployment.register_object(
            "obj", config, participants=["n00"], top_layer=["n00"],
            start_background=False).middlewares["n00"]
        store = deployment.stores["n00"]
        for i in range(4):
            cached.write(f"u{i}", metadata_delta=1.0)
            _, plain_level = evaluate_group(
                {"n00": store.replica("obj").vector}, object_id="obj",
                metric=config.metric, weights=config.weights,
                now=deployment.sim.now)["n00"]
            assert cached.current_level() == pytest.approx(plain_level)
