"""Tests for the slotted periodic-timer facility."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.transport import TransportError
from repro.transport.timers import PeriodicTimer


class TestPeriodicTimer:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, lambda: ticks.append(sim.now), period=2.0).start()
        sim.run(until=7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_cancel_removes_pending_event(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=1.0)
        timer.start()
        sim.call_at(2.5, timer.cancel)
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert not timer.active
        # The pending tick was cancelled in the queue, not just flagged:
        # nothing remains scheduled after the cancel point.
        assert len(sim._queue) == 0

    def test_cancel_from_within_callback(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(
            sim, lambda: (ticks.append(sim.now),
                          timer.cancel() if len(ticks) >= 2 else None),
            period=1.0)
        timer.start()
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]

    def test_period_fn_reread_before_every_round(self):
        sim = Simulator()
        state = {"period": 4.0}
        ticks = []
        PeriodicTimer(sim, lambda: ticks.append(sim.now),
                      period_fn=lambda: state["period"]).start()
        sim.run(until=9.0)           # rounds at 4 and 8
        state["period"] = 1.0
        sim.run(until=12.0)          # next already queued for 12, then 1 s
        sim.run(until=15.0)
        assert ticks == [4.0, 8.0, 12.0, 13.0, 14.0, 15.0]

    def test_period_fn_none_stops_timer(self):
        sim = Simulator()
        periods = iter([1.0, 1.0, None])
        ticks = []
        timer = PeriodicTimer(sim, lambda: ticks.append(sim.now),
                              period_fn=lambda: next(periods))
        timer.start()
        sim.run(until=20.0)
        assert ticks == [1.0, 2.0]
        assert not timer.active

    def test_set_period_takes_effect_next_round(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=5.0)
        timer.start()
        sim.run(until=6.0)
        timer.set_period(1.0)
        sim.run(until=12.0)
        assert ticks == [5.0, 10.0, 11.0, 12.0]

    def test_rounds_fired_counter(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, lambda: None, period=1.0).start()
        sim.run(until=4.5)
        assert timer.rounds_fired == 4

    def test_restart_after_cancel_rejected(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, lambda: None, period=1.0).start()
        timer.cancel()
        with pytest.raises(TransportError):
            timer.start()

    def test_stop_then_start_resumes(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=1.0)
        timer.start()
        sim.call_at(2.5, timer.stop)
        sim.call_at(5.0, timer.start)
        sim.run(until=8.0)
        assert ticks == [1.0, 2.0, 6.0, 7.0, 8.0]

    def test_stop_removes_pending_event(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, lambda: None, period=1.0).start()
        sim.call_at(1.5, timer.stop)
        sim.run(until=3.0)
        assert not timer.active
        assert timer.stopped
        assert not timer.cancelled
        assert len(sim._queue) == 0

    def test_stop_from_within_callback(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(
            sim, lambda: (ticks.append(sim.now),
                          timer.stop() if len(ticks) == 2 else None),
            period=1.0)
        timer.start()
        sim.run(until=10.0)
        assert ticks == [1.0, 2.0]
        timer.start()
        sim.run(until=12.5)
        assert ticks == [1.0, 2.0, 11.0, 12.0]

    def test_start_while_running_is_noop(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=1.0)
        timer.start()
        timer.start()  # idempotent; no double-scheduling
        sim.run(until=2.5)
        assert ticks == [1.0, 2.0]

    def test_cancel_wins_over_stop(self):
        sim = Simulator()
        timer = PeriodicTimer(sim, lambda: None, period=1.0).start()
        timer.stop()
        timer.cancel()
        assert not timer.stopped  # cancelled is the terminal state
        with pytest.raises(TransportError):
            timer.start()

    def test_needs_exactly_one_period_source(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, lambda: None)
        with pytest.raises(ValueError):
            PeriodicTimer(sim, lambda: None, period=1.0, period_fn=lambda: 1.0)

    def test_jitter_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, lambda: None, period=1.0, jitter=0.5)

    def test_jitter_spreads_rounds(self):
        sim = Simulator(seed=4)
        ticks = []
        PeriodicTimer(sim, lambda: ticks.append(sim.now), period=1.0,
                      jitter=0.2, rng=sim.random.stream("t")).start()
        sim.run(until=10.0)
        gaps = [b - a for a, b in zip(ticks, ticks[1:])]
        assert all(0.8 <= g <= 1.2 for g in gaps)
        assert any(abs(g - 1.0) > 1e-6 for g in gaps)
