"""Unit tests for generator-based processes and waiters."""

from __future__ import annotations

import pytest

from repro.sim.engine import Simulator
from repro.transport.tasks import Process, Waiter, sleep


class TestSleep:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            sleep(-1.0)

    def test_process_sleeps_for_requested_time(self):
        sim = Simulator()
        times = []

        def proc():
            times.append(sim.now)
            yield sleep(2.5)
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [0.0, 2.5]

    def test_consecutive_sleeps_accumulate(self):
        sim = Simulator()
        times = []

        def proc():
            yield sleep(1.0)
            times.append(sim.now)
            yield sleep(2.0)
            times.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert times == [1.0, 3.0]


class TestWaiter:
    def test_process_resumes_on_trigger_with_value(self):
        sim = Simulator()
        waiter = Waiter(sim)
        got = []

        def proc():
            value = yield waiter
            got.append((sim.now, value))

        sim.spawn(proc())
        sim.call_at(4.0, lambda: waiter.trigger("hello"))
        sim.run()
        assert got == [(4.0, "hello")]

    def test_trigger_before_wait_still_delivers(self):
        sim = Simulator()
        waiter = Waiter(sim)
        waiter.trigger(7)
        got = []

        def proc():
            value = yield waiter
            got.append(value)

        sim.spawn(proc())
        sim.run()
        assert got == [7]

    def test_second_trigger_is_ignored(self):
        sim = Simulator()
        waiter = Waiter(sim)
        waiter.trigger(1)
        waiter.trigger(2)
        assert waiter.value == 1

    def test_multiple_processes_wake_on_one_trigger(self):
        sim = Simulator()
        waiter = Waiter(sim)
        got = []

        def proc(name):
            value = yield waiter
            got.append((name, value))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.call_at(1.0, lambda: waiter.trigger("x"))
        sim.run()
        assert sorted(got) == [("a", "x"), ("b", "x")]


class TestProcess:
    def test_result_is_generator_return_value(self):
        sim = Simulator()

        def proc():
            yield sleep(1.0)
            return 42

        p = sim.spawn(proc())
        sim.run()
        assert p.finished
        assert p.result == 42

    def test_waiting_on_another_process_gets_its_result(self):
        sim = Simulator()

        def child():
            yield sleep(2.0)
            return "child-result"

        results = []

        def parent():
            c = sim.spawn(child())
            value = yield c
            results.append((sim.now, value))

        sim.spawn(parent())
        sim.run()
        assert results == [(2.0, "child-result")]

    def test_done_waiter_triggers_with_result(self):
        sim = Simulator()

        def proc():
            yield sleep(1.0)
            return "done"

        p = sim.spawn(proc())
        sim.run()
        assert p.done_waiter.triggered
        assert p.done_waiter.value == "done"

    def test_unsupported_yield_raises(self):
        sim = Simulator()

        def proc():
            yield "not a command"

        sim.spawn(proc())
        with pytest.raises(TypeError):
            sim.run()

    def test_process_not_finished_before_running(self):
        sim = Simulator()

        def proc():
            yield sleep(1.0)

        p = sim.spawn(proc())
        assert not p.finished
        sim.run()
        assert p.finished
