"""Unit tests for the RanSub round service."""

from __future__ import annotations

import pytest

from repro.overlay.ransub import BRANCHING, RanSubService
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.clock import ClockModel


def build(num_nodes=10):
    sim = Simulator(seed=2)
    network = Network(sim, LatencyModel.fixed(0.01))
    node_ids = [f"n{i:02d}" for i in range(num_nodes)]
    for node_id in node_ids:
        Node(sim, network, node_id, clock_model=ClockModel().perfect())
    service = RanSubService(sim, network, node_ids)
    return sim, network, service, node_ids


class TestTree:
    def test_root_is_first_node(self):
        _, _, service, node_ids = build(10)
        assert service.root == node_ids[0]

    def test_every_non_root_node_has_a_parent(self):
        _, _, service, node_ids = build(17)
        children = {c for kids in (service.children_of(n) for n in node_ids) for c in kids}
        assert children == set(node_ids[1:])

    def test_tree_depth_logarithmic(self):
        _, _, service, _ = build(40)
        assert service.tree_depth() <= 4

    @pytest.mark.parametrize("num_nodes,depth", [
        (1, 0), (2, 1), (5, 1), (6, 2), (21, 2), (22, 3)])
    def test_tree_is_filled_breadth_first(self, num_nodes, depth):
        """``BRANCHING`` children per interior node, each level full
        before the next starts: a level spills exactly at 1 + 4 + 16."""
        _, _, service, node_ids = build(num_nodes)
        assert service.tree_depth() == depth
        assert service.children_of(service.root) == node_ids[1:1 + BRANCHING]
        order = [service.root]
        for node in order:
            kids = service.children_of(node)
            assert len(kids) <= BRANCHING
            order.extend(kids)
        assert order == node_ids


class TestRounds:
    def test_round_messages_counted(self):
        _, network, service, node_ids = build(10)
        before = network.messages_sent("overlay.ransub")
        service.run_round()
        # collect + distribute along each of the N-1 tree edges
        assert network.messages_sent("overlay.ransub") - before == 2 * (len(node_ids) - 1)

    def test_one_round_sends_exactly_this(self):
        """The whole traffic of a round on a 17-node tree whose interior
        node n01 is down: no collect from it, its children's collects and
        distributes counted as drops, the other edges both ways, in node
        order, 64 B up and 32 B per sampled member (8) down."""
        _, network, service, node_ids = build(17)
        sent = []
        real_send = network.send

        def recording_send(src, dst, *, msg_type, size_bytes, **kwargs):
            sent.append((src, dst, msg_type, size_bytes))
            return real_send(src, dst, msg_type=msg_type,
                             size_bytes=size_bytes, **kwargs)

        network.send = recording_send
        network.node("n01").fail()
        assert service.run_round() == 1
        children = {"n00": ["n01", "n02", "n03", "n04"],
                    "n01": ["n05", "n06", "n07", "n08"],
                    "n02": ["n09", "n10", "n11", "n12"],
                    "n03": ["n13", "n14", "n15", "n16"]}
        parent = {c: p for p, kids in children.items() for c in kids}
        assert {n: service.children_of(n) for n in children} == children
        live = [n for n in node_ids[1:] if n != "n01"]
        assert sent == (
            [(n, parent[n], "ransub_collect", 64) for n in live]
            + [(parent[n], n, "ransub_distribute", 256) for n in live])
        assert network.stats.drop_reasons["src-down"] == 4
        assert network.stats.drop_reasons["dst-down"] == 4
        assert network.messages_sent("overlay.ransub") == 2 * len(live)

    def test_distribute_size_is_capped_by_the_membership(self):
        _, network, service, node_ids = build(4)
        service.run_round()
        assert network.bytes_sent("overlay.ransub") == 3 * 64 + 3 * 32 * 3

    def test_run_round_reaches_every_node(self):
        """Each non-root node hears its round from its parent, and each
        parent hears a collect from each of its children."""
        sim, network, service, node_ids = build(12)
        delivered = []
        network.delivery_hooks.append(lambda m: delivered.append(
            (m.msg_type, m.src, m.dst, m.payload)))
        assert service.run_round() == 1
        sim.run(until=1.0)
        distributes = {dst: (src, payload) for msg_type, src, dst, payload
                       in delivered if msg_type == "ransub_distribute"}
        collects = sorted((src, dst) for msg_type, src, dst, _ in delivered
                          if msg_type == "ransub_collect")
        edges = sorted((child, parent) for parent in node_ids
                       for child in service.children_of(parent))
        assert distributes == {child: (parent, {"round": 1})
                               for child, parent in edges}
        assert collects == edges
        assert network.stats.delivered["overlay.ransub"] == 2 * 11

    def test_a_single_node_round_sends_nothing(self):
        _, network, service, _ = build(1)
        assert service.run_round() == 1
        assert network.messages_sent("overlay.ransub") == 0

    def test_a_crashed_leaf_loses_only_its_own_edge(self):
        """The leaf sends no collect and its distribute is not sent: both
        directions of its edge vanish without a drop."""
        _, network, service, node_ids = build(10)
        network.node("n09").fail()
        service.run_round()
        assert network.messages_sent("overlay.ransub") == 2 * 8
        assert sum(network.stats.drop_reasons.values()) == 0

    def test_a_crashed_root_drops_both_waves_to_its_children(self):
        _, network, service, node_ids = build(10)
        network.node("n00").fail()
        service.run_round()
        assert network.stats.drop_reasons["dst-down"] == BRANCHING
        assert network.stats.drop_reasons["src-down"] == BRANCHING
        assert network.messages_sent("overlay.ransub") == 2 * 9

    def test_rounds_resume_after_recovery(self):
        _, network, service, node_ids = build(10)
        node = network.node("n01")
        node.fail()
        service.run_round()
        assert network.messages_sent("overlay.ransub") == 2 * 8
        node.recover()
        assert service.run_round() == 2
        assert network.messages_sent("overlay.ransub") == 2 * 8 + 2 * 9

    def test_periodic_rounds_after_start(self):
        sim, _, service, _ = build(8)
        service.start()
        sim.run(until=16.0)
        assert service.rounds_completed == 3  # at t=5, 10, 15

    def test_starting_twice_runs_one_timer(self):
        sim, _, service, _ = build(8)
        service.start()
        service.start()
        sim.run(until=16.0)
        assert service.rounds_completed == 3

    def test_stop_halts_rounds(self):
        sim, network, service, _ = build(8)
        service.start()
        sim.run(until=6.0)
        service.stop()
        service.stop()
        sent = network.messages_sent("overlay.ransub")
        sim.run(until=30.0)
        assert service.rounds_completed == 1
        assert network.messages_sent("overlay.ransub") == sent == 2 * 7

    def test_a_restart_keeps_counting_rounds(self):
        sim, _, service, _ = build(8)
        service.start()
        sim.run(until=6.0)
        service.stop()
        service.start()
        sim.run(until=12.0)
        assert service.rounds_completed == 2  # at t=5, then t=6 + 5

    def test_validation(self):
        sim = Simulator()
        network = Network(sim, LatencyModel.fixed(0.01))
        with pytest.raises(ValueError):
            RanSubService(sim, network, [])
