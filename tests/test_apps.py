"""Tests for the white-board and booking applications, workloads and users."""

from __future__ import annotations

from collections import deque
from dataclasses import replace

import pytest

from repro.apps.booking import BookingApp, SaleRecord, default_booking_config
from repro.apps.users import ScriptedUser, UserAction, UserActionKind
from repro.apps.whiteboard import WhiteboardApp, WhiteboardStroke, default_whiteboard_config
from repro.workloads.legacy import PoissonWorkload, UniformWorkload
from repro.core.config import AdaptationMode
from repro.core.deployment import DeploymentBuilder
from repro.sim.engine import Simulator


class TestUniformWorkload:
    def test_updates_per_writer_matches_paper(self):
        """100 s at one update every 5 s = 20 updates per writer."""
        workload = UniformWorkload(["a"], period=5.0, duration=100.0)
        assert workload.updates_per_writer() == 20

    def test_event_count(self):
        workload = UniformWorkload(["a", "b"], period=5.0, duration=20.0)
        assert len(workload.events()) == 2 * 4

    def test_events_sorted_by_time(self):
        workload = UniformWorkload(["b", "a"], period=5.0, duration=10.0, stagger=1.0)
        times = [e.time for e in workload.events()]
        assert times == sorted(times)

    def test_schedule_invokes_callback(self):
        sim = Simulator()
        workload = UniformWorkload(["a"], period=2.0, duration=6.0)
        calls = []
        workload.schedule(sim, lambda writer, k: calls.append((sim.now, writer, k)))
        sim.run()
        assert calls == [(2.0, "a", 1), (4.0, "a", 2), (6.0, "a", 3)]

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformWorkload([], period=5.0)
        with pytest.raises(ValueError):
            UniformWorkload(["a"], period=0)
        with pytest.raises(ValueError):
            UniformWorkload(["a"], period=5.0, stagger=5.0)


class TestPoissonWorkload:
    def test_events_within_duration(self):
        import numpy as np
        workload = PoissonWorkload(["a", "b"], mean_period=2.0, duration=50.0,
                                   rng=np.random.default_rng(1))
        events = workload.events()
        assert events
        assert all(0.0 < e.time <= 50.0 for e in events)

    def test_mean_rate_roughly_correct(self):
        import numpy as np
        workload = PoissonWorkload(["a"], mean_period=2.0, duration=2000.0,
                                   rng=np.random.default_rng(2))
        count = len(workload.events())
        assert 800 < count < 1200


class TestWhiteboardApp:
    def build(self):
        deployment = DeploymentBuilder(num_nodes=6, seed=10).build()
        config = default_whiteboard_config(hint_level=0.0,
                                           mode=AdaptationMode.ON_DEMAND)
        app = WhiteboardApp(deployment, participants=list(deployment.node_ids),
                            config=config, start_background=False)
        return deployment, app

    def test_post_and_local_view(self):
        deployment, app = self.build()
        stroke = app.post("n00", "hello world")
        assert isinstance(stroke, WhiteboardStroke)
        assert app.view("n00")[0].text == "hello world"
        assert app.view("n01") == []     # not propagated until resolution

    def test_unknown_participant_rejected(self):
        _, app = self.build()
        with pytest.raises(KeyError):
            app.post("ghost", "x")

    def test_ascii_sum_metadata(self):
        assert WhiteboardStroke("a", "AB", 0.0).ascii_sum() == 65 + 66

    def test_resolution_propagates_strokes(self):
        deployment, app = self.build()
        app.post("n00", "from zero")
        deployment.run(until=2.0)
        app.post("n01", "from one")
        deployment.run(until=4.0)
        app.middleware("n00").demand_active_resolution()
        deployment.run(until=20.0)
        assert app.convergence(["n00", "n01"])
        assert {s.text for s in app.view("n01")} == {"from zero", "from one"}

    def test_levels_and_sample(self):
        deployment, app = self.build()
        app.post("n00", "x")
        levels = app.levels(["n00", "n01"])
        assert set(levels) == {"n00", "n01"}
        worst, avg = app.sample(["n00", "n01"])
        assert worst <= avg

    def test_schedule_uniform_updates_posts_strokes(self):
        deployment, app = self.build()
        count = app.schedule_uniform_updates(["n00", "n01"], period=5.0, duration=15.0,
                                             start=0.0)
        deployment.run(until=20.0)
        assert count == 6
        assert len(app.strokes_posted) == 6


class TestBookingApp:
    def build(self, capacity=10, period=15.0):
        deployment = DeploymentBuilder(num_nodes=6, seed=12).build()
        app = BookingApp(deployment, servers=["n00", "n01", "n02"], capacity=capacity,
                         config=default_booking_config(background_period=period))
        return deployment, app

    def test_booking_accepted_and_recorded(self):
        deployment, app = self.build()
        sale = app.book("n00", "alice", price=100.0)
        assert isinstance(sale, SaleRecord)
        assert app.outcome().accepted == 1
        assert app.total_revenue() == pytest.approx(100.0)

    def test_unknown_server_rejected(self):
        _, app = self.build()
        with pytest.raises(KeyError):
            app.book("ghost", "bob")

    def test_local_view_limits_sales(self):
        deployment, app = self.build(capacity=2)
        assert app.book("n00", "c1") is not None
        assert app.book("n00", "c2") is not None
        assert app.book("n00", "c3") is None
        assert app.rejected_no_seats == 1

    def test_overselling_from_divergent_replicas(self):
        """Two servers that have not reconciled can sell the same last seats."""
        deployment, app = self.build(capacity=2, period=1000.0)
        for k in range(2):
            app.book("n00", f"a{k}")
            app.book("n01", f"b{k}")
        outcome = app.outcome()
        assert outcome.total_sold == 4
        assert outcome.oversold == 2

    def test_background_resolution_reconciles_sales_view(self):
        deployment, app = self.build(capacity=100, period=10.0)
        app.book("n00", "alice")
        app.book("n01", "bob")
        deployment.run(until=30.0)
        assert app.seats_remaining_at("n00") == app.seats_remaining_at("n01") == 98

    def test_validation(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=12).build()
        with pytest.raises(ValueError):
            BookingApp(deployment, servers=["n00"], capacity=0)
        _, app = self.build()
        with pytest.raises(ValueError):
            app.book("n00", "x", seats=0)

    def test_feedback_adjusts_controller_period(self):
        deployment, app = self.build(period=20.0)
        app.report_overselling()
        periods = {mw.controller.period for mw in app.managed.middlewares.values()}
        assert periods == {10.0}
        app.report_underselling()
        periods = {mw.controller.period for mw in app.managed.middlewares.values()}
        assert all(p >= 10.0 for p in periods)


class TestScriptedUser:
    def build(self):
        deployment = DeploymentBuilder(num_nodes=4, seed=14).build()
        config = default_whiteboard_config(hint_level=0.9)
        app = WhiteboardApp(deployment, participants=list(deployment.node_ids),
                            config=config, start_background=False)
        return deployment, app

    def test_set_hint_action(self):
        deployment, app = self.build()
        user = ScriptedUser("u", app.middleware("n00"),
                            [UserAction(time=5.0, kind=UserActionKind.SET_HINT,
                                        argument=0.8)])
        user.schedule()
        deployment.run(until=10.0)
        assert app.middleware("n00").controller.hint_level == 0.8
        assert len(user.executed(UserActionKind.SET_HINT)) == 1

    def test_demand_resolution_action(self):
        deployment, app = self.build()
        app.post("n00", "x")
        user = ScriptedUser("u", app.middleware("n00"),
                            [UserAction(time=2.0, kind=UserActionKind.DEMAND_RESOLUTION)])
        user.schedule()
        deployment.run(until=10.0)
        assert user.outcomes[0].detail in (True, False)

    def test_actions_sorted_and_locked_after_schedule(self):
        deployment, app = self.build()
        user = ScriptedUser("u", app.middleware("n00"))
        user.add_action(UserAction(time=5.0, kind=UserActionKind.READ))
        user.add_action(UserAction(time=1.0, kind=UserActionKind.SET_HINT, argument=0.5))
        assert user.actions[0].time == 1.0
        user.schedule()
        with pytest.raises(RuntimeError):
            user.add_action(UserAction(time=9.0, kind=UserActionKind.READ))
        with pytest.raises(RuntimeError):
            user.schedule()

    def test_complain_action_raises_hint(self):
        deployment, app = self.build()
        user = ScriptedUser("u", app.middleware("n00"),
                            [UserAction(time=3.0, kind=UserActionKind.COMPLAIN)])
        user.schedule()
        deployment.run(until=5.0)
        assert app.middleware("n00").controller.hint_level > 0.9

    def test_long_read_loop_keeps_middleware_state_flat(self):
        """A user who only reads leaves no per-read trace in the middleware
        or its components once the outcome history is full."""
        deployment = DeploymentBuilder(num_nodes=4, seed=14).build()
        config = replace(default_whiteboard_config(hint_level=0.0), outcome_history=16)
        app = WhiteboardApp(deployment, participants=list(deployment.node_ids),
                            config=config, start_background=False)
        app.post("n00", "x")
        middleware = app.middleware("n00")

        def state_size():
            parts = [middleware, *vars(middleware).values()]
            return sum(len(value) for part in parts
                       for value in getattr(part, "__dict__", {}).values()
                       if isinstance(value, (list, dict, set, deque)))

        user = ScriptedUser("u", middleware, [
            UserAction(time=1.0 + 0.1 * i, kind=UserActionKind.READ)
            for i in range(500)])
        user.schedule()
        deployment.run(until=6.0)
        after_fifty = state_size()
        deployment.run(until=60.0)
        assert len(user.executed(UserActionKind.READ)) == 500
        assert state_size() == after_fifty
