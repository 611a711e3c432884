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

    def test_cancel_before_first_round(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=1.0)
        timer.start()
        sim.call_at(0.5, timer.cancel)
        sim.run(until=5.0)
        assert ticks == []
        assert timer.rounds_fired == 0
        assert len(sim._queue) == 0

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=1.0)
        timer.start()
        sim.call_at(1.5, timer.cancel)
        sim.call_at(1.7, timer.cancel)
        sim.run(until=5.0)
        timer.cancel()
        assert ticks == [1.0]
        assert not timer.active

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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_a_non_finite_period_fn_is_refused_naming_the_timer(self, bad):
        sim = Simulator()
        with pytest.raises(ValueError, match="'probe'"):
            PeriodicTimer(sim, lambda: None, period_fn=lambda: bad,
                          label="probe").start()
        periods = iter([1.0, bad])
        ticks = []
        PeriodicTimer(sim, lambda: ticks.append(sim.now),
                      period_fn=lambda: next(periods), label="sampler").start()
        with pytest.raises(ValueError, match="'sampler'"):
            sim.run(until=5.0)
        assert ticks == [1.0]

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

    def test_start_while_running_is_noop(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, lambda: ticks.append(sim.now), period=1.0)
        timer.start()
        timer.start()  # idempotent; no double-scheduling
        sim.run(until=2.5)
        assert ticks == [1.0, 2.0]

    @pytest.mark.parametrize("period", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_period(self, period):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), lambda: None, period=period)

    def test_needs_exactly_one_period_source(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, lambda: None)
        with pytest.raises(ValueError):
            PeriodicTimer(sim, lambda: None, period=1.0, period_fn=lambda: 1.0)
