"""Unit tests for the deterministic random streams and drifting clocks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.clock import ClockModel, DriftingClock
from repro.sim.random import RandomStreams, SubsetSampler


class TestRandomStreams:
    def test_same_name_returns_same_generator(self):
        streams = RandomStreams(seed=1)
        assert streams.stream("a") is streams.stream("a")

    def test_different_names_are_independent(self):
        streams = RandomStreams(seed=1)
        a = streams.stream("a").random(4)
        b = streams.stream("b").random(4)
        assert list(a) != list(b)

    def test_creation_order_does_not_matter(self):
        s1 = RandomStreams(seed=5)
        s2 = RandomStreams(seed=5)
        _ = s1.stream("first")
        a1 = s1.stream("second").random(3)
        a2 = s2.stream("second").random(3)
        assert list(a1) == list(a2)

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("x").random(3)
        b = RandomStreams(seed=2).stream("x").random(3)
        assert list(a) != list(b)

    def test_spawn_creates_nested_factory(self):
        parent = RandomStreams(seed=3)
        child_a = parent.spawn("node-a")
        child_b = parent.spawn("node-b")
        assert child_a.seed != child_b.seed
        # Deterministic: spawning again yields the same child seed.
        assert parent.spawn("node-a").seed == child_a.seed


#: an ``(n, k)`` draw: small ranges (the overlay's), ``k == n``, ``n == 1``
#: and ``k == 1``, the top of Floyd's regime, and ranges in
#: ``[2**31, 2**32 - 1]``, where Lemire's rejection loop runs often
_draws = st.one_of(
    st.integers(1, 64).flatmap(lambda n: st.tuples(st.just(n),
                                                   st.integers(0, n))),
    st.integers(1, 64).map(lambda n: (n, n)),
    st.just((1, 1)),
    st.integers(1, 10_000).map(lambda n: (n, 1)),
    st.integers(2, 10_000).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(0, min(n, 40)))),
    st.integers(2 ** 31, 2 ** 32 - 1).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(1, 8))))


def _same_position(sampler, seed, twin):
    """The sampler has drawn exactly the 32-bit halves the twin has."""
    state = twin.bit_generator.state
    words, carried = divmod(sampler.drawn, 2)
    reference = np.random.PCG64(seed)
    reference.advance(words + carried)
    return (reference.state["state"] == state["state"]
            and state["has_uint32"] == carried)


class TestSubsetSampler:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), st.lists(_draws, min_size=1,
                                                 max_size=12))
    def test_draws_what_choice_draws_in_order_and_position(self, seed, draws):
        """One stream, interleaved sizes: an odd number of halves drawn by
        one call leaves the high half carried into the next."""
        sampler = SubsetSampler(np.random.default_rng(seed))
        twin = np.random.default_rng(seed)
        for n, k in draws:
            want = sorted(twin.choice(n, size=k, replace=False).tolist())
            assert sampler.sample(n, k) == want
            assert _same_position(sampler, seed, twin)

    def test_a_run_past_many_blocks_stays_in_step(self):
        sampler = SubsetSampler(np.random.default_rng(11))
        twin = np.random.default_rng(11)
        for n, k in [(38, 3)] * 500 + [(10_000, 10_000), (2 ** 32 - 1, 3)]:
            assert sampler.sample(n, k) == sorted(
                twin.choice(n, size=k, replace=False).tolist())
        assert _same_position(sampler, 11, twin)

    def test_a_carried_half_in_the_generator_is_drawn_first(self):
        generator, twin = np.random.default_rng(4), np.random.default_rng(4)
        generator.integers(0, 10, dtype=np.uint32)
        twin.integers(0, 10, dtype=np.uint32)
        assert twin.bit_generator.state["has_uint32"] == 1
        assert SubsetSampler(generator).sample(50, 7) == sorted(
            twin.choice(50, size=7, replace=False).tolist())

    def test_refuses_a_generator_that_is_not_pcg64(self):
        with pytest.raises(ValueError, match="PCG64"):
            SubsetSampler(np.random.Generator(np.random.MT19937(1)))
        with pytest.raises(ValueError, match="PCG64"):
            SubsetSampler(np.random.Generator(np.random.PCG64DXSM(1)))

    @pytest.mark.parametrize("n, k", [(2 ** 32, 1), (2 ** 40, 3),
                                      (10_001, 201), (20_000, 20_000),
                                      (5, 6), (5, -1)])
    def test_refuses_what_it_does_not_replay(self, n, k):
        sampler = SubsetSampler(np.random.default_rng(0))
        with pytest.raises(ValueError):
            sampler.sample(n, k)
        assert sampler.drawn == 0

    def test_the_edge_of_floyds_regime_is_served(self):
        sampler = SubsetSampler(np.random.default_rng(3))
        twin = np.random.default_rng(3)
        for n, k in [(10_001, 200), (10_000, 10_000), (2 ** 32 - 1, 1)]:
            assert sampler.sample(n, k) == sorted(
                twin.choice(n, size=k, replace=False).tolist())

    def test_subsets_owns_its_stream(self):
        streams = RandomStreams(seed=9)
        sampler = streams.subsets("fanout")
        assert streams.subsets("fanout") is sampler
        with pytest.raises(ValueError, match="fanout"):
            streams.stream("fanout")
        streams.stream("other").random()
        with pytest.raises(ValueError, match="other"):
            streams.subsets("other")

    def test_subsets_draws_what_the_named_stream_would(self):
        sampler = RandomStreams(seed=9).subsets("fanout")
        twin = RandomStreams(seed=9).stream("fanout")
        for n in range(2, 40):
            assert sampler.sample(n, 2) == sorted(
                twin.choice(n, size=2, replace=False).tolist())


class TestClockModel:
    def test_defaults_are_sane(self):
        model = ClockModel()
        assert model.max_offset > 0
        assert model.sync_interval is not None

    def test_perfect_model_has_zero_error(self):
        model = ClockModel().perfect()
        assert model.max_offset == 0.0
        assert model.max_drift_rate == 0.0


class TestDriftingClock:
    def _clock(self, model: ClockModel) -> DriftingClock:
        return DriftingClock("n0", model, np.random.default_rng(0))

    def test_perfect_clock_reads_true_time(self):
        clock = self._clock(ClockModel().perfect())
        for t in (0.0, 1.5, 100.0):
            assert clock.read(t) == t

    def test_error_bounded_by_offset_plus_drift(self):
        model = ClockModel(max_offset=0.05, max_drift_rate=1e-4, sync_interval=60.0)
        clock = self._clock(model)
        for t in np.linspace(0.0, 300.0, 61):
            bound = model.max_offset + model.max_drift_rate * model.sync_interval
            assert clock.error(float(t)) <= bound + 1e-9

    def test_negative_time_rejected(self):
        clock = self._clock(ClockModel())
        with pytest.raises(ValueError):
            clock.read(-1.0)

    def test_resync_changes_offset(self):
        model = ClockModel(max_offset=0.5, max_drift_rate=0.0, sync_interval=10.0)
        clock = self._clock(model)
        early = clock.read(1.0) - 1.0
        late = clock.read(25.0) - 25.0
        # After two sync intervals the offset has been resampled; with the
        # seeded RNG these differ.
        assert early != late

    def test_no_sync_interval_keeps_offset_constant(self):
        model = ClockModel(max_offset=0.1, max_drift_rate=0.0, sync_interval=None)
        clock = self._clock(model)
        offsets = {round(clock.read(t) - t, 12) for t in (0.0, 10.0, 1000.0)}
        assert len(offsets) == 1

    def test_skew_stays_within_paper_assumption(self):
        """The paper assumes clock gaps 'within seconds'; defaults are far tighter."""
        model = ClockModel()
        clock = self._clock(model)
        assert clock.error(500.0) < 1.0
