"""Unit tests for the synthetic topology and the latency model.

``TestAgainstTheRulesItReplaced`` keeps the three latency rules the one
table-driven :class:`LatencyModel` replaced — Planet-Lab (block-drawn
log-normal jitter, no clamp), heterogeneous (one scalar draw per message at
the link's sigma, clamped at ``min_jitter``; sigma-0 links draw nothing) and
fixed — as reference classes, and holds the model to them float for float.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.latency import (FLOOR, JITTER_BLOCK, PLANETLAB_SIGMA,
                               LatencyModel, LinkProfile)
from repro.sim.random import RandomStreams
from repro.sim.topology import DEFAULT_SITES, planetlab_topology


def _bound(model, seed=0):
    model.bind(RandomStreams(seed))
    return model


class TestTopology:
    def test_default_has_requested_node_count(self):
        topo = planetlab_topology(40)
        assert len(topo.node_ids) == 40

    def test_self_delay_is_zero(self):
        model = _bound(LatencyModel.planetlab(planetlab_topology(10)))
        assert model.expected_delay("n00", "n00") == 0.0
        assert model.delay("n00", "n00") == 0.0

    def test_delays_are_symmetric(self):
        model = LatencyModel.planetlab(planetlab_topology(12))
        nodes = model.topology.node_ids[:6]
        for a in nodes:
            for b in nodes:
                assert model.expected_delay(a, b) == model.expected_delay(b, a)

    def test_cross_continent_delay_in_wan_range(self):
        """One-way delays should be in the few-to-tens-of-ms wide-area range."""
        topo = planetlab_topology(10)
        model = LatencyModel.planetlab(topo)
        delays = [model.expected_delay(a, b) for a in topo.node_ids
                  for b in topo.node_ids if a != b]
        assert min(delays) >= 0.001
        assert max(delays) <= 0.1

    def test_unknown_pair_raises(self):
        model = _bound(LatencyModel.planetlab(planetlab_topology(4)))
        with pytest.raises(KeyError):
            model.expected_delay("n00", "does-not-exist")
        with pytest.raises(KeyError):
            model.delay("does-not-exist", "n00")

    def test_spread_writers_land_on_distinct_sites(self):
        topo = planetlab_topology(40, spread_writers=4)
        sites = {topo.node_site[f"n{i:02d}"] for i in range(4)}
        assert len(sites) == 4

    def test_first_writers_are_far_apart(self):
        """The paper picks writers 'far apart from each other'."""
        topo = planetlab_topology(40, spread_writers=4)
        model = LatencyModel.planetlab(topo)
        writers = topo.node_ids[:4]
        rtts = [model.expected_delay(a, b) + model.expected_delay(b, a)
                for i, a in enumerate(writers) for b in writers[i + 1:]]
        assert min(rtts) > 0.02   # every writer pair is a genuine WAN hop

    def test_rng_assignment_is_reproducible(self):
        a = planetlab_topology(20, rng=np.random.default_rng(1))
        b = planetlab_topology(20, rng=np.random.default_rng(1))
        assert a.node_site == b.node_site

    def test_nodes_at_site_partition_nodes(self):
        topo = planetlab_topology(25)
        total = sum(len(topo.nodes_at_site(s)) for s in topo.sites)
        assert total == 25

    def test_latency_floor_site_pair_matches_base_delay(self):
        """The site-pair delay is the deterministic base the model builds
        on: what two nodes at those sites see before jitter."""
        topo = planetlab_topology(20)
        a, b = topo.node_ids[0], topo.node_ids[1]
        site_a, site_b = topo.node_site[a], topo.node_site[b]
        assert site_a != site_b
        assert topo.latency_floor(site_a, site_b) == \
            LatencyModel.planetlab(topo).expected_delay(a, b)

    def test_latency_floor_rejects_unknown_site(self):
        with pytest.raises(KeyError):
            planetlab_topology(8).latency_floor("boston", "atlantis")

    def test_requires_at_least_one_node_and_site(self):
        with pytest.raises(ValueError):
            planetlab_topology(0)
        with pytest.raises(ValueError):
            planetlab_topology(5, sites=())


def _site_pair(topo, a, b):
    return (topo.node_site[a], topo.node_site[b])


class TestLatencyModels:
    def test_fixed_model_constant(self):
        model = LatencyModel.fixed(0.03)
        assert model.delay("a", "b") == 0.03
        assert model.delay("a", "a") == 0.0
        assert model.expected_delay("a", "b") == 0.03

    def test_model_respects_floor(self):
        topo = planetlab_topology(6)
        world = _bound(LatencyModel.world(
            topo, {_site_pair(topo, "n00", "n01"): LinkProfile(latency=0.0)}))
        assert LatencyModel.fixed(0.0).delay("a", "b") == FLOOR
        assert world.delay("n00", "n01") == FLOOR
        assert world.expected_delay("n01", "n00") == FLOOR

    def test_planetlab_model_jitter_stays_near_base(self):
        topo = planetlab_topology(6)
        model = _bound(LatencyModel.planetlab(topo))
        base = model.expected_delay("n00", "n01")
        samples = [model.delay("n00", "n01") for _ in range(200)]
        assert len(set(samples)) > 1
        assert 0.5 * base < np.mean(samples) < 1.5 * base

    def test_planetlab_block_drawn_jitter_is_the_scalar_stream(self):
        """The first 600 jittered delays equal scalar ``lognormal`` draws from
        a twin generator — across two block refills, with self-sends and the
        sampling-free ``expected_delay`` interleaved, neither of which may
        take a sample.
        (CI runs this on the oldest and the newest supported numpy: a
        ``Generator`` whose array fill left its scalar path would re-baseline
        every trace, and must fail here first.)"""
        topo = planetlab_topology(10)
        model = _bound(LatencyModel.planetlab(topo), seed=20070625)
        twin = RandomStreams(20070625).stream("latency")
        assert 2 * JITTER_BLOCK < 600
        mu = -0.5 * PLANETLAB_SIGMA ** 2
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
            jitter = float(twin.lognormal(mu, PLANETLAB_SIGMA))
            assert model.delay(src, dst) == max(
                topo.latency_floor(*_site_pair(topo, src, dst)) * jitter,
                FLOOR), drawn
            drawn += 1
        assert step > 600  # self-sends were met on the way

    def test_world_without_jitter_never_draws(self):
        topo = planetlab_topology(6)
        streams = RandomStreams(3)
        model = LatencyModel.world(topo, jitter_sigma=0.0)
        model.bind(streams)
        for dst in topo.node_ids:
            assert model.delay("n00", dst) == model.expected_delay("n00", dst)
            assert model.delay("n00", dst) == model.delay("n00", dst)
        assert streams.stream("latency.hetero").random() == \
            RandomStreams(3).stream("latency.hetero").random()

    def test_each_constructor_names_its_stream(self):
        topo = planetlab_topology(4)
        assert LatencyModel.fixed().stream == "latency"
        assert LatencyModel.planetlab(topo).stream == "latency"
        assert LatencyModel.world(topo).stream == "latency.hetero"

    def test_world_profile_names_unknown_site(self):
        with pytest.raises(KeyError):
            LatencyModel.world(planetlab_topology(4),
                               {("boston", "atlantis"): LinkProfile()})

    def test_world_profile_between_one_site_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel.world(planetlab_topology(4),
                               {("boston", "boston"): LinkProfile()})

    @pytest.mark.parametrize("sigmas, drawn_ahead", [
        ((), 0), ((0.25,), JITTER_BLOCK), ((0.6,), JITTER_BLOCK),
        ((0.25, 0.6), 1)])
    def test_one_sigma_draws_a_block_and_two_draw_scalar(self, sigmas,
                                                         drawn_ahead):
        """After one jittered message the stream sits a whole block ahead
        when the table holds at most one positive sigma, one draw ahead
        when it holds two — and untouched when it holds none."""
        topo = planetlab_topology(8)
        default, *linked = sigmas or (0.0,)
        links = {_site_pair(topo, "n00", "n01"): LinkProfile(jitter_sigma=s)
                 for s in linked}
        streams = RandomStreams(5)
        model = LatencyModel.world(topo, links, jitter_sigma=default)
        model.bind(streams)
        model.delay("n00", "n04")   # two nodes of one site: the default sigma
        twin = RandomStreams(5).stream("latency.hetero")
        if drawn_ahead:
            twin.lognormal(0.0, 1.0, size=drawn_ahead)
        assert streams.stream("latency.hetero").random() == twin.random()


# --------------------------------------------------------------------------
# the rules the one model replaced, kept here as the reference
# --------------------------------------------------------------------------

class OldFixed:
    """The old fixed model: the constant between every distinct pair."""

    def __init__(self, delay):
        self._delay = delay
        self.jittered = 0

    def delay(self, src, dst):
        return 0.0 if src == dst else self._delay

    expected_delay = delay


class OldPlanetLab:
    """The old Planet-Lab model: base × block-drawn ``lognormal(mu, 0.25)``,
    floored at 0.5 ms, no clamp."""

    def __init__(self, topology, rng):
        self.topology = topology
        self.rng = rng
        self.block = []
        self.jittered = 0

    def _base(self, src, dst):
        site = self.topology.node_site
        return self.topology.latency_floor(site[src], site[dst])

    def delay(self, src, dst):
        if src == dst:
            return 0.0
        if not self.block:
            self.block = self.rng.lognormal(
                -0.5 * 0.25 ** 2, 0.25, size=256)[::-1].tolist()
        self.jittered += 1
        return max(self._base(src, dst) * self.block.pop(), 0.0005)

    def expected_delay(self, src, dst):
        return 0.0 if src == dst else max(self._base(src, dst), 0.0005)


class OldHeterogeneous:
    """The old heterogeneous model: one scalar ``lognormal`` per message
    at the link's sigma, the sample clamped at ``min_jitter``; a sigma-0
    link draws nothing."""

    def __init__(self, topology, links, rng, jitter_sigma, min_jitter):
        self.topology = topology
        self.links = {tuple(sorted(pair)): p for pair, p in links.items()}
        self.rng = rng
        self.jitter_sigma = jitter_sigma
        self.min_jitter = min_jitter
        self.jittered = 0

    def _resolve(self, src, dst):
        site_a = self.topology.node_site[src]
        site_b = self.topology.node_site[dst]
        base = self.topology.latency_floor(site_a, site_b)
        sigma = self.jitter_sigma
        profile = self.links.get(tuple(sorted((site_a, site_b))))
        if profile is not None:
            if profile.latency is not None:
                base = profile.latency
            else:
                base *= profile.latency_scale
            if profile.jitter_sigma is not None:
                sigma = profile.jitter_sigma
        return base, sigma

    def delay(self, src, dst):
        if src == dst:
            return 0.0
        base, sigma = self._resolve(src, dst)
        if sigma == 0:
            return max(base, 0.0005)
        jitter = float(self.rng.lognormal(-0.5 * sigma ** 2, sigma))
        if jitter < self.min_jitter:
            jitter = self.min_jitter
        self.jittered += 1
        return max(base * jitter, 0.0005)

    def expected_delay(self, src, dst):
        if src == dst:
            return 0.0
        return max(self._resolve(src, dst)[0], 0.0005)


def _replay(model, rule, nodes, seed, walk_seed, *, draws=2 * JITTER_BLOCK + 40,
            max_steps=6000):
    """Walk ``model`` and ``rule`` through the same pairs — delays,
    ``expected_delay`` probes and self-sends interleaved — until the rule
    has jittered ``draws`` messages (or ``max_steps`` pass); every answer
    must be float-equal."""
    model.bind(RandomStreams(seed))
    walk = random.Random(walk_seed)
    step = 0
    while rule.jittered < draws and step < max_steps:
        src = walk.choice(nodes)
        dst = src if walk.random() < 0.15 else walk.choice(nodes)
        if walk.random() < 0.2:
            assert model.expected_delay(src, dst) == \
                rule.expected_delay(src, dst), step
        assert model.delay(src, dst) == rule.delay(src, dst), step
        step += 1
    return step


def _topology(num_sites, extra_nodes):
    """Every site holds two nodes or more, so intra-site pairs exist."""
    return planetlab_topology(4 + 2 * num_sites + extra_nodes,
                              sites=DEFAULT_SITES[:num_sites])


_SIGMAS = [0.1, 0.25, 0.3, 0.6, 0.8]


@st.composite
def _link_tables(draw, positive_sigmas):
    """(topology, links, default sigma, distinct positive sigmas used)."""
    topo = _topology(draw(st.integers(3, 6)), draw(st.integers(0, 6)))
    pool = draw(st.lists(st.sampled_from(_SIGMAS), min_size=positive_sigmas,
                         max_size=positive_sigmas, unique=True))
    default = pool[0] if pool else 0.0
    names = sorted(topo.sites)
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
    links = {}
    for index, pair in enumerate(pairs):
        # every extra sigma rides one link; the rest take their chances
        forced = pool[index + 1] if index + 1 < len(pool) else None
        if forced is None and not draw(st.booleans()):
            continue
        latency = draw(st.none() | st.sampled_from([0.0, 0.004, 0.05, 0.2]))
        links[pair[::-1] if draw(st.booleans()) else pair] = LinkProfile(
            latency=latency,
            latency_scale=(1.0 if latency is not None
                           else draw(st.sampled_from([0.5, 1.0, 2.5]))),
            jitter_sigma=(forced if forced is not None else
                          draw(st.sampled_from([None, 0.0] + pool))))
    return topo, links, default


class TestAgainstTheRulesItReplaced:
    @pytest.mark.parametrize("positive_sigmas", [0, 1, 2, 3])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1),
           walk_seed=st.integers(0, 2 ** 16),
           min_jitter=st.sampled_from([0.5, 0.8, 0.95, 1.0]))
    def test_world_replays_the_heterogeneous_rule(self, positive_sigmas, data,
                                                  seed, walk_seed, min_jitter):
        """Scalar draws and block draws alike reproduce the old scalar rule:
        one sigma pops from a block, two or more draw one at a time."""
        topo, links, default = data.draw(_link_tables(positive_sigmas))
        model = LatencyModel.world(topo, links, jitter_sigma=default,
                                   min_jitter=min_jitter)
        rule = OldHeterogeneous(
            topo, links, RandomStreams(seed).stream("latency.hetero"),
            default, min_jitter)
        steps = _replay(model, rule, topo.node_ids, seed, walk_seed,
                        max_steps=20000 if positive_sigmas else 300)
        if positive_sigmas:
            assert rule.jittered > 2 * JITTER_BLOCK, steps
        else:
            assert rule.jittered == 0

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), walk_seed=st.integers(0, 2 ** 16),
           num_sites=st.integers(1, 10), extra_nodes=st.integers(0, 8))
    def test_planetlab_replays_its_rule(self, seed, walk_seed, num_sites,
                                        extra_nodes):
        topo = _topology(num_sites, extra_nodes)
        rule = OldPlanetLab(topo, RandomStreams(seed).stream("latency"))
        _replay(LatencyModel.planetlab(topo), rule, topo.node_ids, seed,
                walk_seed)
        assert rule.jittered > 2 * JITTER_BLOCK

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(delay=st.floats(FLOOR, 1.0), walk_seed=st.integers(0, 2 ** 16))
    def test_fixed_replays_its_rule(self, delay, walk_seed):
        rule = OldFixed(delay)
        steps = _replay(LatencyModel.fixed(delay), rule, ["a", "b", "c"], 0,
                        walk_seed, max_steps=200)
        assert steps == 200


def _forced_block(model):
    model._block = []


def _sigma_zero_draws(model):
    resolve = model._row

    def row(src, dst):
        base, sigma, mu = resolve(src, dst)
        if src != dst and not sigma:
            # jitter exp(0 + 1e-300·z) is exactly 1: same delay, one draw
            model._rows[(src, dst)] = (base, 1e-300, 0.0)
        return model._rows[(src, dst)]

    model._row = row


def _no_clamp(model):
    model.min_jitter = 0.0


def _clamped(model):
    model.min_jitter = 0.5


def _stream(name):
    def mutate(model):
        model.stream = name
    return mutate


def _two_sigma_world(clamp=0.5):
    topo = _topology(4, 3)
    names = sorted(topo.sites)
    links = {(names[0], names[1]): LinkProfile(jitter_sigma=0.6),
             (names[1], names[2]): LinkProfile(latency=0.03, jitter_sigma=0.0)}
    return topo, LatencyModel.world(topo, links, min_jitter=clamp), \
        lambda rng: OldHeterogeneous(topo, links, rng, 0.25, clamp)


def _planetlab():
    topo = _topology(5, 2)
    return topo, LatencyModel.planetlab(topo), \
        lambda rng: OldPlanetLab(topo, rng)


#: name -> (world builder, mutation, stream the reference draws from)
_MUTANTS = {
    "block path with two sigmas": (_two_sigma_world, _forced_block,
                                   "latency.hetero"),
    "sigma-0 link consumes a draw": (_two_sigma_world, _sigma_zero_draws,
                                     "latency.hetero"),
    "clamp skipped": (lambda: _two_sigma_world(clamp=0.95), _no_clamp,
                      "latency.hetero"),
    "clamp applied to Planet-Lab": (_planetlab, _clamped, "latency"),
    "world on the Planet-Lab stream": (_two_sigma_world, _stream("latency"),
                                       "latency.hetero"),
    "Planet-Lab on the world stream": (_planetlab, _stream("latency.hetero"),
                                       "latency"),
}


@pytest.mark.parametrize("name", _MUTANTS)
def test_the_replay_kills_the_mutant(name):
    """Each broken model above fails the walk the real one passes."""
    build, mutate, stream = _MUTANTS[name]
    topo, model, rule = build()
    _replay(model, rule(RandomStreams(11).stream(stream)), topo.node_ids, 11,
            3, draws=3000, max_steps=20000)
    topo, model, rule = build()
    mutate(model)
    with pytest.raises(AssertionError):
        _replay(model, rule(RandomStreams(11).stream(stream)), topo.node_ids,
                11, 3, draws=3000, max_steps=20000)
