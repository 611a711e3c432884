"""Unit/integration tests for the baseline consistency protocols."""

from __future__ import annotations

import pytest

from repro.baselines.optimistic import OptimisticAntiEntropy
from repro.baselines.strong import StrongConsistencyPrimary
from repro.baselines.tact import TactBoundedConsistency, TactBounds
from repro.core.deployment import DeploymentBuilder
from repro.transport.message import Message


def build(num_nodes=5, seed=6):
    return DeploymentBuilder(num_nodes=num_nodes, seed=seed).build()


class TestOptimisticAntiEntropy:
    def test_write_is_immediate_and_local(self):
        deployment = build()
        protocol = OptimisticAntiEntropy(deployment.sim, deployment.network,
                                         deployment.nodes, "obj")
        record = protocol.write("n00", "hello", metadata_delta=1.0)
        assert record is not None
        assert protocol.metrics.write_latencies == [0.0]
        assert protocol.replicas["n01"].vector.count("n00") == 0

    def test_anti_entropy_spreads_updates(self):
        deployment = build()
        protocol = OptimisticAntiEntropy(deployment.sim, deployment.network,
                                         deployment.nodes, "obj",
                                         anti_entropy_period=5.0)
        protocol.write("n00", "hello")
        protocol.start()
        deployment.run(until=200.0)
        counts = [r.vector.count("n00") for r in protocol.replicas.values()]
        assert sum(counts) > 1          # the update reached other replicas

    def test_eventual_convergence_with_enough_time(self):
        deployment = build(num_nodes=4)
        protocol = OptimisticAntiEntropy(deployment.sim, deployment.network,
                                         deployment.nodes, "obj",
                                         anti_entropy_period=2.0)
        protocol.write("n00", "a", metadata_delta=1.0)
        protocol.write("n01", "b", metadata_delta=1.0)
        protocol.start()
        deployment.run(until=400.0)
        assert protocol.all_replicas_converged()
        assert protocol.metrics.propagation_completion_fraction() == 1.0

    def test_messages_counted_per_protocol(self):
        deployment = build()
        protocol = OptimisticAntiEntropy(deployment.sim, deployment.network,
                                         deployment.nodes, "obj",
                                         anti_entropy_period=5.0)
        protocol.write("n00", "x")
        protocol.start()
        deployment.run(until=20.0)
        assert protocol.messages_sent() > 0
        assert protocol.messages_per_update() > 0


class TestStrongConsistencyPrimary:
    def test_write_commits_everywhere(self):
        deployment = build()
        protocol = StrongConsistencyPrimary(deployment.sim, deployment.network,
                                            deployment.nodes, "obj")
        protocol.write("n02", "sale", metadata_delta=3.0)
        deployment.run(until=5.0)
        assert protocol.all_replicas_converged()
        for replica in protocol.replicas.values():
            assert replica.vector.count("n02") == 1
            assert replica.metadata == pytest.approx(3.0)

    def test_writer_latency_at_least_two_round_trips(self):
        deployment = build()
        protocol = StrongConsistencyPrimary(deployment.sim, deployment.network,
                                            deployment.nodes, "obj", primary="n00")
        protocol.write("n03", "x")
        deployment.run(until=5.0)
        assert protocol.metrics.write_latencies
        assert protocol.metrics.write_latencies[0] > deployment.network.expected_rtt(
            "n03", "n00") * 0.9

    def test_primary_write_has_no_commit_ack_message(self):
        deployment = build()
        protocol = StrongConsistencyPrimary(deployment.sim, deployment.network,
                                            deployment.nodes, "obj", primary="n00")
        protocol.write("n00", "local")
        deployment.run(until=5.0)
        assert protocol.metrics.write_latencies

    def test_messages_per_update_scale_with_replica_count(self):
        small = build(num_nodes=3, seed=6)
        ps = StrongConsistencyPrimary(small.sim, small.network, small.nodes, "obj")
        ps.write("n01", "x")
        small.run(until=5.0)

        large = build(num_nodes=8, seed=6)
        pl = StrongConsistencyPrimary(large.sim, large.network, large.nodes, "obj")
        pl.write("n01", "x")
        large.run(until=5.0)
        assert pl.messages_per_update() > ps.messages_per_update()

    def test_unknown_primary_rejected(self):
        deployment = build()
        with pytest.raises(KeyError):
            StrongConsistencyPrimary(deployment.sim, deployment.network,
                                     deployment.nodes, "obj", primary="ghost")

    def test_no_conflicts_ever(self):
        deployment = build()
        protocol = StrongConsistencyPrimary(deployment.sim, deployment.network,
                                            deployment.nodes, "obj")
        for i, writer in enumerate(("n01", "n02", "n03")):
            protocol.write(writer, f"u{i}")
        deployment.run(until=10.0)
        assert protocol.all_replicas_converged()


class TestTactBoundedConsistency:
    def test_writes_local_until_bound_hit(self):
        deployment = build()
        protocol = TactBoundedConsistency(deployment.sim, deployment.network,
                                          deployment.nodes, "obj",
                                          bounds=TactBounds(order=3, numerical=100,
                                                            staleness=1000))
        protocol.write("n00", "u1", metadata_delta=1.0)
        protocol.write("n00", "u2", metadata_delta=1.0)
        deployment.run(until=2.0)
        # Below the order bound: nothing pushed yet.
        assert protocol.replicas["n01"].vector.count("n00") == 0
        protocol.write("n00", "u3", metadata_delta=1.0)
        deployment.run(until=5.0)
        assert protocol.replicas["n01"].vector.count("n00") == 3

    def test_numerical_bound_triggers_sync(self):
        deployment = build()
        protocol = TactBoundedConsistency(deployment.sim, deployment.network,
                                          deployment.nodes, "obj",
                                          bounds=TactBounds(order=100, numerical=5.0,
                                                            staleness=1000))
        protocol.write("n00", "big", metadata_delta=10.0)
        deployment.run(until=5.0)
        assert protocol.replicas["n02"].vector.count("n00") == 1

    def test_staleness_timer_bounds_divergence(self):
        deployment = build()
        protocol = TactBoundedConsistency(deployment.sim, deployment.network,
                                          deployment.nodes, "obj",
                                          bounds=TactBounds(order=100, numerical=1e9,
                                                            staleness=10.0))
        protocol.write("n00", "slow", metadata_delta=0.1)
        protocol.start()
        deployment.run(until=30.0)
        assert protocol.all_replicas_converged()

    def test_divergence_stays_within_order_bound(self):
        deployment = build()
        bounds = TactBounds(order=2, numerical=1e9, staleness=1e9)
        protocol = TactBoundedConsistency(deployment.sim, deployment.network,
                                          deployment.nodes, "obj", bounds=bounds)
        for k in range(7):
            protocol.write("n00", f"u{k}", metadata_delta=0.0)
            deployment.run(until=deployment.sim.now + 1.0)
        # Every other replica is at most `order` updates behind.
        for node, replica in protocol.replicas.items():
            if node != "n00":
                behind = 7 - replica.vector.count("n00")
                assert behind <= bounds.order

    def test_sync_counts_recorded(self):
        deployment = build()
        protocol = TactBoundedConsistency(deployment.sim, deployment.network,
                                          deployment.nodes, "obj",
                                          bounds=TactBounds(order=1, numerical=1e9,
                                                            staleness=1e9))
        protocol.write("n00", "x")
        deployment.run(until=2.0)
        assert protocol.syncs_run == 1

    def test_a_push_overtaken_in_flight_waits_and_a_repeat_is_dropped(self):
        deployment = build()
        protocol = TactBoundedConsistency(deployment.sim, deployment.network,
                                          deployment.nodes, "obj",
                                          bounds=TactBounds(order=100, numerical=1e9,
                                                            staleness=1e9))
        first, second = (protocol.write("n00", f"u{k}") for k in range(2))

        def push(*records):
            protocol._handle_push(Message("n00", "n01", protocol.protocol_name,
                                          "tact_push:obj",
                                          {"updates": list(records)}))
        push(second)
        # the gap stays visible until the earlier push arrives
        assert protocol.replicas["n01"].vector.count("n00") == 0
        assert protocol.held["n01"] == [second]
        push(first)
        push(first, second)
        assert protocol.replicas["n01"].vector.count("n00") == 2
        assert protocol.held["n01"] == []
