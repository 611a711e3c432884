"""Unit tests for the TTL-bounded gossip service."""

from __future__ import annotations

import pytest

from repro.core.config import IdeaConfig
from repro.core.deployment import DeploymentBuilder
from repro.core.detection import VersionDigest
from repro.overlay.gossip import GossipConfig, GossipService
from repro.sim.clock import ClockModel
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.random import RandomStreams
from repro.versioning.extended_vector import UpdateRecord, WriterBase
from repro.versioning.version_vector import DIGEST_BYTES


def make_digest(object_id, origin, counts, issued_at=0.0):
    writers = tuple((w, WriterBase(c, float(c), 0.0))
                    for w, c in sorted(counts.items()))
    return VersionDigest(object_id, origin, issued_at, writers,
                         float(sum(counts.values())), 0.0,
                         sum(counts.values()))


class GossipHarness:
    """A small deployment where each node's replica state is a dict of counts."""

    def __init__(self, num_nodes=8, config=None, service_class=GossipService,
                 outsiders=0):
        self.sim = Simulator(seed=5)
        self.network = Network(self.sim, LatencyModel.fixed(0.01))
        self.node_ids = [f"n{i:02d}" for i in range(num_nodes)]
        #: nodes on the network that ``membership`` does not list
        self.outsiders = [f"x{i:02d}" for i in range(outsiders)]
        for node_id in self.node_ids + self.outsiders:
            Node(self.sim, self.network, node_id, clock_model=ClockModel().perfect())
        self.state = {n: {"w": 1} for n in self.node_ids + self.outsiders}
        self.service = service_class(
            self.sim, self.network, config=config,
            membership=lambda obj: self.node_ids,
            local_digest=self._digest)
        self.service.watch_object("obj")

    def _digest(self, node_id, object_id):
        return make_digest(object_id, node_id, self.state[node_id],
                           issued_at=self.sim.now)


class TestGossipConfig:
    def test_defaults_valid(self):
        GossipConfig()



class TestGossipService:
    def test_consistent_nodes_produce_no_detections(self):
        harness = GossipHarness()
        harness.service.run_round()
        harness.sim.run(until=5.0)
        assert harness.service.detection_count() == 0

    def test_divergent_node_is_detected(self):
        harness = GossipHarness()
        harness.state["n03"] = {"w": 5}     # n03 diverged from everyone else
        harness.service.run_round()
        harness.sim.run(until=5.0)
        assert harness.service.detection_count() > 0

    def test_detections_are_counted_per_object(self):
        harness = GossipHarness()
        harness.service.watch_object("other")
        harness.state["n01"] = {"w": 9}
        totals = []
        for round_no in range(1, 4):
            harness.service.run_round()
            harness.sim.run(until=5.0 * round_no)
            totals.append(harness.service.detection_count())
        service = harness.service
        # the running total keeps counting round after round
        assert 0 < totals[0] < totals[1] < totals[2]
        assert totals[-1] > 15
        assert (service.detection_count("obj") + service.detection_count("other")
                == service.detection_count())
        assert service.detection_count("obj") > 0
        assert service.detection_count("never-watched") == 0

    def test_fanouts_draw_what_a_twin_generator_draws(self):
        """``choice(len(peers), size=fanout, replace=False)`` on the
        ``overlay.gossip`` stream, one call per fan-out, in event order."""
        harness = GossipHarness(num_nodes=40)
        fanouts = []
        send_many = harness.network.send_many

        def recording(src, dsts, **kwargs):
            fanouts.append((src, kwargs["payload"]["digest"].node_id, list(dsts)))
            return send_many(src, dsts, **kwargs)

        harness.network.send_many = recording
        harness.service.run_round()
        harness.sim.run(until=5.0)
        assert len(fanouts) >= 200
        twin = RandomStreams(5).stream("overlay.gossip")
        for sender, origin, chosen in fanouts[:200]:
            peers = [m for m in harness.node_ids if m != sender and m != origin]
            drawn = twin.choice(len(peers), size=3, replace=False)
            assert chosen == [peers[idx] for idx in sorted(drawn)]

    def test_every_hop_of_a_rounds_digest_is_one_object_and_ttl_falls_by_one(self):
        config = GossipConfig(ttl=4)
        harness = GossipHarness(num_nodes=40, config=config)
        fanouts = []
        send_many = harness.network.send_many

        def recording(src, dsts, **kwargs):
            fanouts.append((src, list(dsts), kwargs["payload"]))
            return send_many(src, dsts, **kwargs)

        harness.network.send_many = recording
        harness.service.run_round()
        harness.sim.run(until=5.0)
        first = {}
        received = set()
        for src, dsts, payload in fanouts:
            digest, ttl = payload["digest"], payload["ttl"]
            if src == digest.node_id and digest.node_id not in first:
                assert ttl == config.ttl
                first[digest.node_id] = digest
            else:
                # a forward re-sends the object the origin sent, one hop less
                assert digest is first[digest.node_id]
                assert (src, id(digest), ttl + 1) in received
            received.update((dst, id(digest), ttl) for dst in dsts)
        assert len(first) == 40
        assert {payload["ttl"] for _, _, payload in fanouts} == {1, 2, 3, 4}

    def test_a_receiver_outside_members_forwards_among_all_of_them(self):
        harness = GossipHarness(num_nodes=10, outsiders=1)
        outsider = harness.outsiders[0]
        harness.service.attach(harness.network.node(outsider))
        fanouts = []
        send_many = harness.network.send_many

        def recording(src, dsts, **kwargs):
            fanouts.append((src, list(dsts), kwargs["payload"]["ttl"]))
            return send_many(src, dsts, **kwargs)

        digest = make_digest("obj", "n00", {"w": 1})
        harness.network.send("n00", outsider, protocol="overlay.gossip",
                             msg_type="gossip_digest",
                             payload={"digest": digest, "ttl": 2,
                                      "members": harness.node_ids},
                             size_bytes=128)
        harness.network.send_many = recording
        harness.sim.run(until=0.015)
        peers = harness.node_ids[1:]  # every member but the origin
        drawn = RandomStreams(5).stream("overlay.gossip").choice(
            len(peers), size=3, replace=False)
        assert fanouts == [(outsider, [peers[i] for i in sorted(drawn)], 1)]

    def test_round_sends_fanout_messages_per_node(self):
        config = GossipConfig(fanout=2, ttl=1)
        harness = GossipHarness(num_nodes=6, config=config)
        sent = harness.service.run_round()
        assert sent == 6 * 2

    def test_ttl_bounds_forwarding(self):
        """With TTL 1 digests are never forwarded beyond the first hop."""
        config_short = GossipConfig(fanout=2, ttl=1)
        config_long = GossipConfig(fanout=2, ttl=4)
        short = GossipHarness(num_nodes=10, config=config_short)
        long = GossipHarness(num_nodes=10, config=config_long)
        for harness in (short, long):
            harness.state["n01"] = {"w": 7}
            harness.service.run_round()
            harness.sim.run(until=5.0)
        short_msgs = short.network.messages_sent("overlay.gossip")
        long_msgs = long.network.messages_sent("overlay.gossip")
        assert long_msgs > short_msgs

    def test_periodic_rounds_with_start(self):
        config = GossipConfig(round_period=10.0, fanout=1, ttl=1)
        harness = GossipHarness(num_nodes=4, config=config)
        harness.service.start()
        harness.sim.run(until=35.0)
        assert harness.service.rounds_completed == 3

    def test_watch_object_idempotent(self):
        harness = GossipHarness()
        harness.service.watch_object("obj")
        assert harness.service._objects.count("obj") == 1

    def test_nodes_without_replica_are_skipped(self):
        harness = GossipHarness(num_nodes=4)
        harness.state["n02"] = None

        def digest(node_id, object_id):
            if harness.state[node_id] is None:
                return None
            return make_digest(object_id, node_id, harness.state[node_id],
                               issued_at=harness.sim.now)

        harness.service._local_digest = digest
        harness.service.run_round()
        harness.sim.run(until=2.0)  # should not raise


class TestDeploymentGossipDigest:
    """``IdeaDeployment._gossip_digest`` is the detection service's digest."""

    @staticmethod
    def build():
        deployment = DeploymentBuilder(num_nodes=4, seed=3,
                                       use_gossip=True).build()
        deployment.register_object("obj", IdeaConfig(), start_background=False)
        return deployment

    def test_memo_follows_every_replica_mutation(self):
        deployment = self.build()
        detection = deployment.middleware("obj", "n01").detection
        replica = deployment.stores["n01"].replica("obj")
        other = deployment.stores["n02"].replica("obj")

        def check():
            digest = deployment._gossip_digest("n01", "obj")
            assert digest is detection.local_digest()
            assert digest == VersionDigest.from_replica(replica,
                                                        digest.issued_at)
            return digest

        seen = [check()]
        for seq in range(1, 4):
            other.local_write("n02", float(seq), metadata_delta=0.3)
        steps = [
            lambda: replica.local_write("n01", 1.0, metadata_delta=0.1),
            lambda: replica.local_write("n01", 2.0, metadata_delta=0.7),
            lambda: replica.install_merged(
                replica.vector.merge(other.vector, consistent_time=3.0)
                .delta_above({}), now=3.0),
            lambda: replica.invalidate_updates([("n02", 3)]),
            lambda: replica.mark_consistent(4.0),
            lambda: replica.truncate_stable({"n01": 1, "n02": 2}),
            lambda: replica.apply_update(UpdateRecord("n03", 1, 5.0, 0.2), applied_at=5.0),
        ]
        for step in steps:
            step()
            seen.append(check())
        # each vector-changing step shows: no stale answer survived it
        assert len({(d.writers, d.metadata, d.last_consistent_time)
                    for d in seen}) >= 6

        deployment.crash_node("n01")
        assert deployment._gossip_digest("n01", "obj") is None
        replica.local_write("n01", 6.0, metadata_delta=0.1)
        deployment.recover_node("n01")
        check()
        # a node that hosts no middleware for the object gossips nothing
        assert deployment._gossip_digest("n01", "unregistered") is None

    def test_a_write_a_sweep_and_an_announce_build_one_digest(self):
        deployment = self.build()
        middleware = deployment.middleware("obj", "n01")
        cache = deployment.runtimes["n01"].digests
        middleware.detection.local_digest()
        misses = cache.misses
        middleware.write(payload="x", metadata_delta=1.0)
        deployment.gossip.run_round()
        deployment.run(until=5.0)
        middleware.detection.announce_write()
        assert cache.misses == misses + 1
        assert deployment.gossip.detection_count("obj") > 0

    def test_a_gossip_hop_and_an_announce_charge_the_same_bytes(self):
        """One digest type, one modelled size: a hop charges what the top
        layer's announce of the same digest charges."""
        deployment = DeploymentBuilder(num_nodes=4, seed=3,
                                       use_gossip=True).build()
        deployment.register_object("obj", IdeaConfig(),
                                   start_background=False,
                                   top_layer=["n00", "n01"])
        deployment.middleware("obj", "n01").write(payload="x",
                                                  metadata_delta=1.0)
        deployment.gossip.run_round()
        deployment.run(until=5.0)
        stats = deployment.transport.stats
        per_message = {protocol: stats.bytes_sent[protocol]
                       / stats.sent[protocol]
                       for protocol in ("overlay.gossip", "idea.detection")}
        assert per_message == {"overlay.gossip": DIGEST_BYTES,
                               "idea.detection": DIGEST_BYTES}
