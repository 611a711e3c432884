"""Tests for the workloads subsystem: popularity, phases, clients, legacy."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workloads import (
    ClientPopulation,
    ClosedLoopClient,
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    OpenLoopClient,
    OpMix,
    PoissonWorkload,
    RampRate,
    RotatingHotspot,
    UniformPopularity,
    UniformWorkload,
    ZipfPopularity,
)
from repro.workloads.clients import DrawBuffer


class TestPopularityModels:
    def test_uniform_pick_bounds(self):
        model = UniformPopularity(4)
        assert model.pick(0.0, 0.0) == 0
        assert model.pick(0.999999, 0.0) == 3
        assert model.pick(0.5, 123.0) == 2

    def test_zipf_zero_skew_is_uniform(self):
        model = ZipfPopularity(4, 0.0)
        for i in range(4):
            assert model.probability(i) == pytest.approx(0.25)

    def test_zipf_skew_concentrates_on_low_ranks(self):
        model = ZipfPopularity(16, 0.99)
        probs = [model.probability(i) for i in range(16)]
        assert probs == sorted(probs, reverse=True)
        assert probs[0] > 0.2                     # the hot object dominates
        assert sum(probs) == pytest.approx(1.0)

    def test_zipf_pick_matches_cdf(self):
        model = ZipfPopularity(8, 1.0)
        rng = np.random.default_rng(3)
        draws = rng.random(20000)
        picks = np.array([model.pick(u, 0.0) for u in draws])
        freq0 = float(np.mean(picks == 0))
        assert freq0 == pytest.approx(model.probability(0), abs=0.02)

    def test_hotspot_rotates_with_time(self):
        model = RotatingHotspot(4, rotate_period=10.0, hot_weight=0.6)
        assert model.hot_index(0.0) == 0
        assert model.hot_index(15.0) == 1
        assert model.hot_index(45.0) == 0          # wraps around
        # A draw under hot_weight hits the current hot object.
        assert model.pick(0.3, 15.0) == 1
        # Above hot_weight the pick is uniform over the *other* objects.
        others = {model.pick(u, 15.0) for u in (0.61, 0.75, 0.9, 0.99)}
        assert 1 not in others
        assert others <= {0, 2, 3}

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformPopularity(0)
        with pytest.raises(ValueError):
            ZipfPopularity(4, -0.1)
        with pytest.raises(ValueError):
            RotatingHotspot(4, rotate_period=0.0)
        with pytest.raises(ValueError):
            RotatingHotspot(4, rotate_period=1.0, hot_weight=1.0)


class TestRateSchedules:
    def test_constant(self):
        schedule = ConstantRate(5.0)
        assert schedule.rate(0.0) == schedule.rate(1e6) == 5.0
        assert schedule.peak_rate() == 5.0

    def test_ramp_clamps_at_both_ends(self):
        schedule = RampRate(2.0, 10.0, duration=8.0, t0=4.0)
        assert schedule.rate(0.0) == 2.0
        assert schedule.rate(8.0) == pytest.approx(6.0)
        assert schedule.rate(100.0) == 10.0
        assert schedule.peak_rate() == 10.0

    def test_diurnal_cycles_and_stays_nonnegative(self):
        schedule = DiurnalRate(4.0, amplitude=1.0, period=40.0)
        assert schedule.rate(10.0) == pytest.approx(8.0)   # peak of sine
        assert schedule.rate(30.0) == pytest.approx(0.0)   # trough
        assert schedule.peak_rate() == pytest.approx(8.0)
        assert schedule.mean_rate(0.0, 40.0) == pytest.approx(4.0, rel=1e-3)

    def test_flash_crowd_profile(self):
        schedule = FlashCrowdRate(2.0, 20.0, at=10.0, ramp=4.0, hold=6.0)
        assert schedule.rate(5.0) == 2.0
        assert schedule.rate(12.0) == pytest.approx(11.0)  # mid-ramp
        assert schedule.rate(16.0) == 20.0                 # holding the peak
        assert schedule.rate(22.0) == pytest.approx(11.0)  # mid-decay
        assert schedule.rate(60.0) == 2.0
        assert schedule.peak_rate() == 20.0

    def test_exhausted_only_once_the_rate_stays_zero(self):
        assert ConstantRate(0.0).exhausted_after(0.0)
        assert not ConstantRate(1.0).exhausted_after(1e6)
        drain = RampRate(2.0, 0.0, duration=5.0)
        assert not drain.exhausted_after(4.9)
        assert drain.exhausted_after(5.0)
        assert not RampRate(2.0, 1.0, duration=5.0).exhausted_after(1e6)
        crowd = FlashCrowdRate(0.0, 1.0, at=10.0, ramp=1.0, hold=100.0)
        assert not crowd.exhausted_after(0.0)      # quiet, but not over
        assert not crowd.exhausted_after(111.5)    # still decaying
        assert crowd.exhausted_after(112.0)
        assert not FlashCrowdRate(2.0, 5.0, at=10.0).exhausted_after(1e6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConstantRate(-1.0)
        with pytest.raises(ValueError):
            RampRate(1.0, 2.0, duration=0.0)
        with pytest.raises(ValueError):
            DiurnalRate(1.0, amplitude=1.5)
        with pytest.raises(ValueError):
            FlashCrowdRate(5.0, 1.0, at=0.0)


#: a uniform or exponential draw, through the method or popped in line the
#: way the driver and the open-loop client pop them
DRAW_KINDS = ("uniform", "exponential", "pop-uniform", "pop-exponential")
BLOCK = 256


def _block_draws(seed, kinds):
    """What the buffer must return: ``Generator.random(256)`` and
    ``standard_exponential(256)`` blocks, each drawn from the one generator
    when its kind's previous block is used up, read front to back."""
    rng = np.random.default_rng(seed)
    blocks = {"uniform": [], "exponential": []}
    out = []
    for kind in kinds:
        family = kind.removeprefix("pop-")
        if not blocks[family]:
            blocks[family] = list(rng.random(BLOCK) if family == "uniform"
                                  else rng.standard_exponential(BLOCK))
        out.append(float(blocks[family].pop(0)))
    return out


class TestDrawBuffer:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           pattern=st.lists(st.sampled_from(DRAW_KINDS), min_size=1,
                            max_size=24))
    def test_interleaved_draws_are_the_generator_blocks(self, seed, pattern):
        # repeat the interleaving until each family is refilled twice
        pattern = pattern + [kind for kind in DRAW_KINDS[:2]
                             if not any(k.endswith(kind) for k in pattern)]
        kinds, drawn = [], {"uniform": 0, "exponential": 0}
        while min(drawn.values()) <= 3 * BLOCK:
            for kind in pattern:
                kinds.append(kind)
                drawn[kind.removeprefix("pop-")] += 1
        draws = DrawBuffer(np.random.default_rng(seed))
        uniforms, exponentials = draws.uniforms, draws.exponentials
        got = []
        for kind in kinds:
            if kind == "uniform":
                got.append(draws.uniform())
            elif kind == "exponential":
                got.append(draws.exponential())
            elif kind == "pop-uniform":
                got.append(uniforms.pop() if uniforms else draws.uniform())
            else:
                got.append(exponentials.pop() if exponentials
                           else draws.exponential())
        assert got == _block_draws(seed, kinds)
        assert all(type(value) is float for value in got)


class TestClientStreams:
    def make_open(self, schedule, seed=1):
        return OpenLoopClient("s:00000", popularity=UniformPopularity(2),
                              mix=OpMix(0.5), rng=np.random.default_rng(seed),
                              schedule=schedule)

    def test_open_loop_rate_statistically_correct(self):
        stream = self.make_open(ConstantRate(10.0))
        t, count = 0.0, 0
        while True:
            t = stream.next_time(t)
            if t > 100.0:
                break
            count += 1
        assert 800 < count < 1200                  # ~10 ops/s over 100 s

    def test_open_loop_thinning_follows_schedule(self):
        """Arrivals concentrate inside the flash-crowd window."""
        schedule = FlashCrowdRate(1.0, 30.0, at=40.0, ramp=2.0, hold=10.0)
        stream = self.make_open(schedule, seed=5)
        times = []
        t = 0.0
        while True:
            t = stream.next_time(t)
            if t is None or t > 80.0:
                break
            times.append(t)
        inside = [x for x in times if 40.0 <= x <= 56.0]
        assert len(inside) > len(times) * 0.6

    def test_open_loop_deterministic_per_seed(self):
        a = self.make_open(ConstantRate(4.0), seed=9)
        b = self.make_open(ConstantRate(4.0), seed=9)
        ta = tb = 0.0
        for _ in range(50):
            ta, tb = a.next_time(ta), b.next_time(tb)
            assert ta == tb

    def test_open_loop_zero_rate_finishes(self):
        stream = self.make_open(ConstantRate(0.0))
        assert stream.next_time(0.0) is None

    def test_open_loop_exhausted_ramp_finishes(self):
        stream = self.make_open(RampRate(2.0, 0.0, duration=5.0))
        t, hops = 0.0, 0
        while t is not None and hops < 1000:
            t = stream.next_time(t)
            hops += 1
        assert t is None

    def test_open_loop_survives_long_quiet_stretch(self):
        """A flash crowd far beyond the thinning batch horizon still fires.

        With base rate 0 and peak 100, one probe batch covers only ~100
        simulated seconds of quiet; the stream must keep searching instead
        of declaring itself finished before the crowd at t=500.
        """
        schedule = FlashCrowdRate(0.0, 100.0, at=500.0, ramp=2.0, hold=4.0)
        stream = self.make_open(schedule, seed=8)
        first = stream.next_time(0.0)
        assert first is not None and first >= 500.0
        # ... and once the crowd has decayed, the stream does finish.
        assert stream.next_time(520.0) is None

    def test_closed_loop_exhausted_schedule_finishes(self):
        stream = ClosedLoopClient(
            "c:00002", popularity=UniformPopularity(2), mix=OpMix(0.5),
            rng=np.random.default_rng(12), think_time=1.0,
            schedule=RampRate(2.0, 0.0, duration=5.0))
        assert stream.next_time(10.0) is None

    def test_closed_loop_finishes_once_a_zero_base_crowd_decays(self):
        stream = ClosedLoopClient(
            "c:00003", popularity=UniformPopularity(2), mix=OpMix(0.5),
            rng=np.random.default_rng(5), think_time=1.0,
            schedule=FlashCrowdRate(0.0, 1.0, at=10.0, ramp=1.0, hold=20.0))
        times, t = [], 0.0
        while (t := stream.next_time(t)) is not None and len(times) < 1000:
            times.append(t)
        assert t is None
        assert times and 10.0 < times[0] and times[-1] <= 32.0

    def test_closed_loop_think_time_spacing(self):
        stream = ClosedLoopClient(
            "c:00000", popularity=UniformPopularity(2), mix=OpMix(0.5),
            rng=np.random.default_rng(2), think_time=2.0)
        t, count = 0.0, 0
        while True:
            t = stream.next_time(t)
            if t > 400.0:
                break
            count += 1
        assert 150 < count < 250                   # ~1 op / 2 s

    def test_closed_loop_idles_while_schedule_is_zero(self):
        schedule = FlashCrowdRate(0.0, 1.0, at=10.0, ramp=1.0, hold=100.0)
        stream = ClosedLoopClient(
            "c:00001", popularity=UniformPopularity(2), mix=OpMix(0.5),
            rng=np.random.default_rng(4), think_time=1.0, schedule=schedule)
        t = stream.next_time(0.0)
        assert t >= 10.0

    def test_population_builds_seeded_streams(self):
        population = ClientPopulation(
            name="web", num_clients=3, popularity=UniformPopularity(2),
            schedule=ConstantRate(1.0))
        streams_a = population.build_streams(RandomStreams(7))
        streams_b = population.build_streams(RandomStreams(7))
        assert [s.stream_id for s in streams_a] == [
            "web:00000", "web:00001", "web:00002"]
        for a, b in zip(streams_a, streams_b):
            assert a.next_time(0.0) == b.next_time(0.0)
        # Distinct streams draw independently.
        assert streams_a[0].next_time(0.0) != streams_a[1].next_time(0.0)

    def test_population_validation(self):
        with pytest.raises(ValueError):
            ClientPopulation(name="x", num_clients=0,
                             popularity=UniformPopularity(2),
                             schedule=ConstantRate(1.0))
        with pytest.raises(ValueError):
            ClientPopulation(name="x", num_clients=1,
                             popularity=UniformPopularity(2))  # open, no schedule
        with pytest.raises(ValueError):
            ClientPopulation(name="x", num_clients=1, model="bogus",
                             popularity=UniformPopularity(2))

    def test_op_mix_validation_and_split(self):
        mix = OpMix(0.75)
        assert mix.read_fraction == 0.75 and mix.describe() == "75%R/25%W"
        with pytest.raises(ValueError):
            OpMix(1.5)


class TestLegacyWorkloads:
    def test_updates_per_writer_float_multiple_regression(self):
        """0.3 s of one update per 0.1 s is 3 updates, not 2.

        ``0.3 // 0.1 == 2.0`` under IEEE-754; the quotient must be
        epsilon-tolerant.
        """
        workload = UniformWorkload(["a"], period=0.1, duration=0.3)
        assert workload.updates_per_writer() == 3
        assert len(workload.events()) == 3

    def test_updates_per_writer_still_floors_partial_periods(self):
        workload = UniformWorkload(["a"], period=5.0, duration=9.9)
        assert workload.updates_per_writer() == 1

    def test_poisson_events_idempotent(self):
        """events() must not redraw the schedule on every call."""
        workload = PoissonWorkload(["a", "b"], mean_period=2.0, duration=50.0,
                                   rng=np.random.default_rng(11))
        first = workload.events()
        assert workload.events() == first
        sim = Simulator()
        issued = []
        count = workload.schedule(sim, lambda w, k: issued.append((sim.now, w, k)))
        sim.run()
        assert count == len(first)
        assert [(e.time, e.writer, e.sequence_index) for e in first] == issued
