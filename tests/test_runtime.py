"""Tests for the per-node runtime: event bus, digest cache, object registry."""

from __future__ import annotations

import pytest

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.detection import VersionDigest, evaluate_group
from repro.core.middleware import IdeaMiddleware
from repro.runtime import (
    DigestCache,
    EventBus,
    NodeRuntime,
    ResolutionCompleted,
    WriteRecorded,
)
from repro.sim.clock import ClockModel
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.store.filesystem import ReplicatedStore
from repro.store.replica import Replica


@pytest.fixture
def host():
    sim = Simulator(seed=5)
    network = Network(sim, LatencyModel.fixed(0.02))
    node = Node(sim, network, "n00", clock_model=ClockModel().perfect())
    store = ReplicatedStore("n00")
    return sim, node, store


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

    def test_hit_until_replica_changes(self):
        replica = Replica("n00", "obj")
        replica.local_write("n00", 1.0)
        cache = DigestCache()
        first = cache.local_digest("obj", replica, now=1.0)
        second = cache.local_digest("obj", replica, now=2.0)
        assert second is first
        assert cache.hits == 1 and cache.misses == 1

    def test_incremental_fold_after_more_writes(self):
        replica = Replica("n00", "obj")
        cache = DigestCache()
        for i in range(5):
            replica.local_write("n00", float(i + 1), metadata_delta=0.5)
            cached = cache.local_digest("obj", replica, now=float(i + 1))
            fresh = VersionDigest.from_replica(replica, issued_at=float(i + 1))
            assert cached == fresh
            assert cached.total == fresh.total == i + 1

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

    def test_forget_object_drops_state(self):
        replica = Replica("n00", "obj")
        replica.local_write("n00", 1.0)
        cache = DigestCache()
        cache.peer_digests("obj")["n01"] = object()
        cache.local_digest("obj", replica, now=1.0)
        cache.forget_object("obj")
        assert cache.peer_digests("obj") == {}
        assert "obj" not in cache.objects() or cache.peer_digests("obj") == {}


class TestNodeRuntime:
    def test_attach_registers_object(self, host):
        sim, node, store = host
        runtime = NodeRuntime(node, store)
        middleware = runtime.attach("obj", hint_config(),
                                    top_layer_provider=lambda: ["n00"])
        assert "obj" in runtime
        assert runtime.middleware("obj") is middleware
        assert runtime.object_ids() == ["obj"]

    def test_duplicate_attach_rejected(self, host):
        sim, node, store = host
        runtime = NodeRuntime(node, store)
        runtime.attach("obj", hint_config(), top_layer_provider=lambda: [])
        with pytest.raises(ValueError):
            runtime.attach("obj", hint_config(), top_layer_provider=lambda: [])

    def test_objects_share_digest_cache_and_bus(self, host):
        sim, node, store = host
        runtime = NodeRuntime(node, store)
        a = runtime.attach("a", hint_config(), top_layer_provider=lambda: [])
        b = runtime.attach("b", hint_config(), top_layer_provider=lambda: [])
        assert a.runtime is runtime and b.runtime is runtime
        assert a.bus is b.bus is runtime.bus
        assert a.detection._digest_cache is runtime.digests
        assert b.detection._digest_cache is runtime.digests

    def test_detach_forgets_object(self, host):
        sim, node, store = host
        runtime = NodeRuntime(node, store)
        runtime.attach("obj", hint_config(), top_layer_provider=lambda: [])
        runtime.detach("obj")
        assert "obj" not in runtime
        assert len(runtime) == 0

    def test_standalone_middleware_gets_private_runtime(self, host):
        sim, node, store = host
        middleware = IdeaMiddleware(node, store, "obj", config=hint_config(),
                                    top_layer_provider=lambda: ["n00"])
        assert "obj" in middleware.runtime
        assert middleware.runtime.middleware("obj") is middleware

    def test_write_publishes_on_bus(self, host):
        sim, node, store = host
        runtime = NodeRuntime(node, store)
        middleware = runtime.attach("obj", hint_config(),
                                    top_layer_provider=lambda: ["n00"])
        seen = []
        runtime.bus.subscribe(WriteRecorded, seen.append)
        middleware.write("payload", metadata_delta=1.0)
        assert len(seen) == 1
        assert seen[0].object_id == "obj" and seen[0].node_id == "n00"

    def test_levels_identical_with_and_without_cache(self, host):
        # The uncached reference: digests rebuilt from the replica's vector.
        sim, node, store = host
        config = hint_config()
        cached = NodeRuntime(node, store).attach(
            "obj", config, top_layer_provider=lambda: ["n00"])
        for i in range(4):
            cached.write(f"u{i}", metadata_delta=1.0)
            _, plain_level = evaluate_group(
                {"n00": store.replica("obj").vector}, object_id="obj",
                metric=config.metric, weights=config.weights,
                now=sim.now)["n00"]
            assert cached.current_level() == pytest.approx(plain_level)
