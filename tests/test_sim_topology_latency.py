"""Unit tests for the synthetic topology and latency models."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.latency import FixedLatencyModel, PlanetLabLatencyModel, UniformLatencyModel
from repro.sim.topology import DEFAULT_SITES, Site, Topology, planetlab_topology


class TestTopology:
    def test_default_has_requested_node_count(self):
        topo = planetlab_topology(40)
        assert len(topo.node_ids) == 40

    def test_self_delay_is_zero(self):
        topo = planetlab_topology(10)
        assert topo.one_way_delay("n00", "n00") == 0.0

    def test_delays_are_symmetric(self):
        topo = planetlab_topology(12)
        for a in topo.node_ids[:6]:
            for b in topo.node_ids[:6]:
                assert topo.one_way_delay(a, b) == pytest.approx(topo.one_way_delay(b, a))

    def test_cross_continent_delay_in_wan_range(self):
        """One-way delays should be in the few-to-tens-of-ms wide-area range."""
        topo = planetlab_topology(10)
        delays = [topo.one_way_delay(a, b) for a in topo.node_ids for b in topo.node_ids
                  if a != b]
        assert min(delays) >= 0.001
        assert max(delays) <= 0.1

    def test_unknown_pair_raises(self):
        topo = planetlab_topology(4)
        with pytest.raises(KeyError):
            topo.one_way_delay("n00", "does-not-exist")

    def test_spread_writers_land_on_distinct_sites(self):
        topo = planetlab_topology(40, spread_writers=4)
        sites = {topo.node_site[f"n{i:02d}"] for i in range(4)}
        assert len(sites) == 4

    def test_first_writers_are_far_apart(self):
        """The paper picks writers 'far apart from each other'."""
        topo = planetlab_topology(40, spread_writers=4)
        writers = topo.node_ids[:4]
        rtts = [topo.rtt(a, b) for i, a in enumerate(writers) for b in writers[i + 1:]]
        assert min(rtts) > 0.02   # every writer pair is a genuine WAN hop

    def test_mean_rtt_positive(self):
        assert planetlab_topology(8).mean_rtt() > 0

    def test_rng_assignment_is_reproducible(self):
        a = planetlab_topology(20, rng=np.random.default_rng(1))
        b = planetlab_topology(20, rng=np.random.default_rng(1))
        assert a.node_site == b.node_site

    def test_nodes_at_site_partition_nodes(self):
        topo = planetlab_topology(25)
        total = sum(len(topo.nodes_at_site(s)) for s in topo.sites)
        assert total == 25

    def test_latency_floor_site_pair_matches_base_delay(self):
        """The site-pair delay is the deterministic base every model builds
        on: what two nodes at those sites see before jitter."""
        topo = planetlab_topology(20)
        a, b = topo.node_ids[0], topo.node_ids[1]
        site_a, site_b = topo.node_site[a], topo.node_site[b]
        assert site_a != site_b
        assert topo.latency_floor(site_a, site_b) == pytest.approx(
            topo.one_way_delay(a, b))

    def test_latency_floor_rejects_unknown_site(self):
        with pytest.raises(KeyError):
            planetlab_topology(8).latency_floor("boston", "atlantis")

    def test_requires_at_least_one_node_and_site(self):
        with pytest.raises(ValueError):
            planetlab_topology(0)
        with pytest.raises(ValueError):
            planetlab_topology(5, sites=())


class TestLatencyModels:
    def test_fixed_model_constant(self):
        model = FixedLatencyModel(0.03)
        assert model.delay("a", "b") == 0.03
        assert model.delay("a", "a") == 0.0

    def test_fixed_model_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatencyModel(-0.1)

    def test_uniform_model_within_bounds(self):
        model = UniformLatencyModel(0.01, 0.02, rng=np.random.default_rng(0))
        for _ in range(100):
            assert 0.01 <= model.delay("a", "b") <= 0.02

    def test_uniform_model_expected_delay_is_midpoint(self):
        model = UniformLatencyModel(0.01, 0.03)
        assert model.expected_delay("a", "b") == pytest.approx(0.02)

    def test_uniform_model_validates_bounds(self):
        with pytest.raises(ValueError):
            UniformLatencyModel(0.05, 0.01)

    def test_planetlab_model_zero_for_self(self):
        topo = planetlab_topology(6)
        model = PlanetLabLatencyModel(topo, np.random.default_rng(0))
        assert model.delay("n00", "n00") == 0.0

    def test_planetlab_model_jitter_stays_near_base(self):
        topo = planetlab_topology(6)
        model = PlanetLabLatencyModel(topo, np.random.default_rng(0), jitter_sigma=0.25)
        base = topo.one_way_delay("n00", "n01")
        samples = [model.delay("n00", "n01") for _ in range(200)]
        assert 0.5 * base < np.mean(samples) < 1.5 * base

    def test_planetlab_model_zero_jitter_is_deterministic(self):
        topo = planetlab_topology(6)
        model = PlanetLabLatencyModel(topo, np.random.default_rng(0), jitter_sigma=0.0)
        assert model.delay("n00", "n01") == model.delay("n00", "n01")

    def test_planetlab_model_respects_floor(self):
        topo = planetlab_topology(6)
        model = PlanetLabLatencyModel(topo, np.random.default_rng(0), floor=0.5)
        assert model.delay("n00", "n01") >= 0.5

    def test_expected_delay_matches_topology_base(self):
        topo = planetlab_topology(6)
        model = PlanetLabLatencyModel(topo, np.random.default_rng(0))
        assert model.expected_delay("n00", "n01") == pytest.approx(
            topo.one_way_delay("n00", "n01"))

    def test_planetlab_block_drawn_jitter_is_the_scalar_stream(self):
        """The first 600 jittered delays equal scalar ``lognormal`` draws from
        a twin generator — across two block refills, with self-sends and the
        sampling-free ``expected_delay`` interleaved, neither of which may
        take a sample.
        (CI runs this on the oldest and the newest supported numpy: a
        ``Generator`` whose array fill left its scalar path would re-baseline
        every trace, and must fail here first.)"""
        topo = planetlab_topology(10)
        model = PlanetLabLatencyModel(topo, np.random.default_rng(20070625))
        twin = np.random.default_rng(20070625)
        assert 2 * model.JITTER_BLOCK < 600
        mu = -0.5 * model.jitter_sigma ** 2
        nodes = topo.node_ids
        drawn = 0
        step = 0
        while drawn < 600:
            src = nodes[step % len(nodes)]
            dst = nodes[(step * 7 + step // 10) % len(nodes)]
            step += 1
            if step % 5 == 0:
                model.expected_delay(src, dst)
            if src == dst:
                assert model.delay(src, dst) == 0.0
                continue
            jitter = float(twin.lognormal(mu, model.jitter_sigma))
            assert model.delay(src, dst) == max(
                topo.one_way_delay(src, dst) * jitter, model.floor), drawn
            drawn += 1
        assert step > 600  # self-sends were met on the way

    def test_planetlab_model_without_jitter_never_draws(self):
        topo = planetlab_topology(6)
        rng = np.random.default_rng(3)
        untouched = np.random.default_rng(3)
        model = PlanetLabLatencyModel(topo, rng, jitter_sigma=0.0)
        for dst in topo.node_ids:
            assert model.delay("n00", dst) == model.expected_delay("n00", dst)
        assert rng.random() == untouched.random()
