"""Unit tests for the RanSub random-subset service."""

from __future__ import annotations

import pytest

from repro.overlay.ransub import RanSubService, _uniform_sample
from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.clock import ClockModel
from repro.sim.random import RandomStreams


def build(num_nodes=10, **kwargs):
    sim = Simulator(seed=2)
    network = Network(sim, LatencyModel.fixed(0.01))
    node_ids = [f"n{i:02d}" for i in range(num_nodes)]
    for node_id in node_ids:
        Node(sim, network, node_id, clock_model=ClockModel().perfect())
    service = RanSubService(sim, network, node_ids, **kwargs)
    return sim, network, service, node_ids


class TestUniformSample:
    def test_sample_size_capped_at_pool(self):
        sample = RandomStreams(0).subsets("test").sample
        assert len(_uniform_sample(["a", "b"], 5, sample)) == 2

    def test_sample_has_no_duplicates(self):
        sample = RandomStreams(0).subsets("test").sample
        pool = [f"n{i}" for i in range(20)]
        drawn = _uniform_sample(pool + pool[:5], 8, sample)
        assert len(drawn) == len(set(drawn)) == 8

    def test_views_draw_what_a_twin_generator_draws(self):
        """``choice(N - 1, size=subset_size, replace=False)`` on the
        ``overlay.ransub`` stream, one call per node, in member order."""
        _, _, service, node_ids = build(12, subset_size=5)
        twin = RandomStreams(2).stream("overlay.ransub")
        for _ in range(3):
            service.run_round()
            for node in node_ids:
                pool = [n for n in node_ids if n != node]
                drawn = twin.choice(len(pool), size=5, replace=False)
                assert service.current_view(node).members == [
                    pool[i] for i in sorted(drawn)]


class TestTree:
    def test_root_is_first_node(self):
        _, _, service, node_ids = build(10)
        assert service.root == node_ids[0]

    def test_every_non_root_node_has_a_parent(self):
        _, _, service, node_ids = build(17, branching=4)
        children = {c for kids in (service.children_of(n) for n in node_ids) for c in kids}
        assert children == set(node_ids[1:])

    def test_tree_depth_logarithmic(self):
        _, _, service, _ = build(40, branching=4)
        assert service.tree_depth() <= 4

    def test_branching_validation(self):
        with pytest.raises(ValueError):
            build(5, branching=1)


class TestRounds:
    def test_run_round_delivers_view_to_every_node(self):
        _, _, service, node_ids = build(12, subset_size=5)
        service.run_round()
        for node in node_ids:
            view = service.current_view(node)
            assert view is not None
            assert view.round_number == 1
            assert len(view.members) == 5
            assert node not in view.members

    def test_round_messages_counted(self):
        _, network, service, node_ids = build(10)
        before = network.messages_sent("overlay.ransub")
        service.run_round()
        # collect + distribute along each of the N-1 tree edges
        assert network.messages_sent("overlay.ransub") - before == 2 * (len(node_ids) - 1)

    def test_subscription_callback_invoked(self):
        _, _, service, node_ids = build(6, subset_size=3)
        seen = []
        service.subscribe(node_ids[2], lambda view: seen.append(view.round_number))
        service.run_round()
        service.run_round()
        assert seen == [1, 2]

    def test_periodic_rounds_after_start(self):
        sim, _, service, _ = build(8)
        service.start()
        sim.run(until=16.0)
        assert service.rounds_completed == 3  # at t=5, 10, 15

    def test_samples_cover_membership_over_time(self):
        """Uniform sampling: over many rounds every node appears in views."""
        _, _, service, node_ids = build(12, subset_size=4)
        seen = set()
        for _ in range(30):
            service.run_round()
            for node in node_ids:
                seen.update(service.current_view(node).members)
        assert seen == set(node_ids)

    def test_validation(self):
        with pytest.raises(ValueError):
            build(5, subset_size=0)
        sim = Simulator()
        network = Network(sim, LatencyModel.fixed(0.01))
        with pytest.raises(ValueError):
            RanSubService(sim, network, [])
