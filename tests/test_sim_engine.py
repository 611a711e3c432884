"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.engine import _NO_ARG, SimulationError, Simulator


def _queue():
    """A fresh simulator's queue, and the ``call_at`` that pushes onto it."""
    sim = Simulator()
    return sim._queue, sim.call_at


class TestEventQueue:
    def test_pop_returns_events_in_time_order(self):
        q, push = _queue()
        order = []
        push(2.0, lambda: order.append("b"))
        push(1.0, lambda: order.append("a"))
        push(3.0, lambda: order.append("c"))
        while (event := q.pop()) is not None:
            event.callback()
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        q, push = _queue()
        first = push(1.0, lambda: None)
        second = push(1.0, lambda: None)
        assert q.pop() is first
        assert q.pop() is second

    def test_priority_orders_events_at_same_time(self):
        q, push = _queue()
        timer = push(1.0, lambda: None, priority=0)
        network = push(1.0, lambda: None, priority=-1)
        assert q.pop() is network
        assert q.pop() is timer

    def test_cancelled_events_are_skipped(self):
        q, push = _queue()
        event = push(1.0, lambda: None)
        event.cancel()
        assert q.pop() is None

    def test_len_counts_only_live_events(self):
        q, push = _queue()
        e1 = push(1.0, lambda: None)
        push(2.0, lambda: None)
        e1.cancel()
        assert len(q) == 1

    def test_pop_skips_cancelled_heads_and_settles_their_count(self):
        q, push = _queue()
        heads = [push(float(i), lambda: None, recyclable=True)
                 for i in range(3)]
        later = push(5.0, lambda: None)
        for event in heads:
            event.cancel()
        assert q.cancelled_pending == 3
        assert q.pop() is later
        # The drained heads left the heap's books and went to the pool.
        assert q.cancelled_pending == 0
        assert q.pool_size == 3
        assert len(q) == 0 and q._heap == []

    def test_len_is_maintained_not_scanned(self):
        q, push = _queue()
        events = [push(float(i), lambda: None) for i in range(10)]
        assert len(q) == 10
        events[3].cancel()
        events[7].cancel()
        assert len(q) == 8
        q.pop()
        assert len(q) == 7
        events[3].cancel()  # double-cancel must not double-count
        assert len(q) == 7

    def test_cancel_after_pop_is_noop(self):
        q, push = _queue()
        event = push(1.0, lambda: None)
        push(2.0, lambda: None)
        assert q.pop() is event
        event.cancel()
        assert len(q) == 1

    def test_heap_compacts_when_mostly_cancelled(self):
        q, push = _queue()
        events = [push(float(i), lambda: None) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        # More cancelled than live entries: the heap must have been compacted
        # rather than retaining all 200 slots.
        assert len(q) == 50
        assert len(q._heap) < 200
        assert len(q._heap) == 50 + q.cancelled_pending

    def test_recyclable_events_are_pooled(self):
        q, push = _queue()
        fired = []
        first = push(1.0, lambda: fired.append(1), recyclable=True)
        assert q.pop() is first
        q._recycle(first)
        second = push(2.0, lambda: fired.append(2), recyclable=True)
        assert second is first  # the pooled object was reused
        assert second.time == 2.0 and not second.cancelled

    def test_cancelled_recyclable_events_return_to_pool(self):
        q, push = _queue()
        event = push(1.0, lambda: None, recyclable=True)
        push(2.0, lambda: None)
        event.cancel()
        assert q.pop().time == 2.0  # skipping the head recycles it
        assert q.pool_size == 1

    def test_non_recyclable_handles_never_enter_pool(self):
        q, push = _queue()
        event = push(1.0, lambda: None)
        q.pop()
        assert q.pool_size == 0
        event.cancel()  # late cancel on an executed event stays a no-op
        assert len(q) == 0

    def test_compaction_preserves_order(self):
        q, push = _queue()
        events = [push(float(i), lambda: None, label=str(i)) for i in range(100)]
        for event in events:
            if event.time % 2 == 0:
                event.cancel()
        popped = []
        while (event := q.pop()) is not None:
            popped.append(event.time)
        assert popped == sorted(popped)
        assert len(popped) == 50


class TestSimulatorPooling:
    def test_run_recycles_delivery_style_events(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.call_after(float(i + 1), seen.append, arg=i, recyclable=True)
        sim.run()
        assert seen == [0, 1, 2, 3, 4]
        # All five recyclable events ended up back in the pool.
        assert sim._queue.pool_size == 5

    def test_arg_events_invoke_callback_with_payload(self):
        sim = Simulator()
        seen = []
        sim.call_after(1.0, seen.append, arg=None)  # arg=None is a real arg
        sim.call_after(2.0, lambda: seen.append("no-arg"))
        sim.run()
        assert seen == [None, "no-arg"]

    def test_steady_state_timer_loop_allocates_no_new_events(self):
        sim = Simulator()
        count = {"n": 0}

        def tick():
            count["n"] += 1
            sim.call_after(1.0, tick, recyclable=True)

        sim.call_after(1.0, tick, recyclable=True)
        sim.run(max_events=50)
        assert count["n"] == 50
        # One event object cycles through the pool for the whole run.
        assert sim._queue.pool_size <= 1

    def test_a_recycled_event_carries_nothing_stale(self):
        sim = Simulator()
        seen = []
        sim.call_after(1.0, seen.append, arg="delivered", label="deliver:a",
                       recyclable=True)
        dropped = sim.call_after(2.0, seen.append, arg="dropped",
                                 label="deliver:b", recyclable=True)
        dropped.cancel()
        sim.call_after(3.0, lambda: None)   # the run loop skips the cancelled head
        sim.run()
        assert seen == ["delivered"]
        parked = list(sim._queue._pool)
        assert len(parked) == 2
        for event in parked:          # run, or skipped once cancelled
            assert event.arg is _NO_ARG
            assert event.callback is None and event.queue is None
        fired = []
        reused = [sim.call_after(1.0, lambda: fired.append("bare"),
                                 recyclable=True) for _ in parked]
        assert sorted(map(id, reused)) == sorted(map(id, parked))
        for event in reused:
            assert event.arg is _NO_ARG and event.label == ""
            assert not event.cancelled and event.queue is sim._queue
        sim.run()
        assert fired == ["bare", "bare"]


class TestSimulator:
    def test_time_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_call_at_runs_callback_at_time(self):
        sim = Simulator()
        seen = []
        sim.call_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_call_after_is_relative(self):
        sim = Simulator()
        seen = []
        sim.call_at(3.0, lambda: sim.call_after(2.0, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [5.0]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        sim.call_at(5.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError, match="time must be >= now"):
            sim.call_at(1.0, lambda: None)

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: seen.append(1))
        sim.call_at(10.0, lambda: seen.append(10))
        end = sim.run(until=5.0)
        assert seen == [1]
        assert end == 5.0
        sim.run()
        assert seen == [1, 10]

    def test_run_until_executes_events_at_boundary(self):
        sim = Simulator()
        seen = []
        sim.call_at(5.0, lambda: seen.append(5))
        sim.run(until=5.0)
        assert seen == [5]

    def test_stop_halts_run(self):
        sim = Simulator()
        seen = []
        sim.call_at(1.0, lambda: (seen.append(1), sim.stop()))
        sim.call_at(2.0, lambda: seen.append(2))
        sim.run()
        assert seen == [1]

    def test_max_events_bounds_execution(self):
        sim = Simulator()
        count = {"n": 0}

        def reschedule():
            count["n"] += 1
            sim.call_after(1.0, reschedule)

        sim.call_after(1.0, reschedule)
        sim.run(max_events=10)
        assert count["n"] == 10

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(5):
            sim.call_at(float(i + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_same_seed_gives_same_random_streams(self):
        a = Simulator(seed=9).random.stream("x").random(5)
        b = Simulator(seed=9).random.stream("x").random(5)
        assert list(a) == list(b)

    def test_nested_run_rejected(self):
        sim = Simulator()

        def inner():
            with pytest.raises(SimulationError):
                sim.run()

        sim.call_at(1.0, inner)
        sim.run()
