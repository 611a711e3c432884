"""Each fast path of the detection hot path ≡ what it replaced.

Three equivalences, each against a reference written out here:

* **levels on demand** — ``IdeaMiddleware._on_remote_digest`` evaluates a
  level only when a controller or a subscriber consumes it; the reference is
  the always-evaluating handler, kept below verbatim;
* **one-pass ranking** — ``TemperatureTracker.select_top``; the reference is
  the dict-and-lambda body it replaced, kept below verbatim;
* **the direct local write** — ``Replica.local_write``; the reference is
  ``apply_update`` of the same record on a twin.

CI replays this file under ``PYTHONHASHSEED=0`` and ``=1``: the top-layer
order is the digest fan-out order, hence the RNG draw order.
"""

from __future__ import annotations

import types

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import (AdaptationMode, ConsistencyMetricSpec,
                               IdeaConfig)
from repro.core.deployment import DeploymentBuilder
from repro.overlay.temperature import TemperatureConfig, TemperatureTracker
from repro.runtime.events import DetectionEvaluated
from repro.store.replica import Replica
from repro.transport.timers import PeriodicTimer
from repro.versioning.extended_vector import UpdateRecord


# ===================================================================== levels

def always_evaluate(self, digest):
    """``IdeaMiddleware._on_remote_digest`` as it was before levels were
    computed on demand: evaluate after every ingested digest, then ask."""
    level = self.detection.current_level()
    if DetectionEvaluated in self.bus.wants:
        success = digest.counts() == self.detection.local_counts()
        self.bus.publish(DetectionEvaluated(
            object_id=self.object_id, node_id=self.node.node_id,
            success=success, level=level, time=self.node.clock.now))
    if self.controller.should_resolve(level):
        self.trigger_active_resolution(auto=True)


#: maxima small enough that four concurrent writers push levels below 0.6
TIGHT = ConsistencyMetricSpec(max_numerical=8, max_order=8, max_staleness=8)

WRITERS = 4
WRITE_PERIOD = 0.4
RUN_FOR = 12.0


def _config(mode, hint, background=None):
    return IdeaConfig(mode=mode, hint_level=hint, metric=TIGHT,
                      background_period=background)


def _run_scenario(config, *, reference, watch, script=()):
    """One seeded run; returns everything a caller could observe.

    ``script`` is ``[(time, action)]`` with ``action(deployment)`` applied at
    that simulated time; reads and explicit ``detect()`` calls are issued on
    a fixed schedule on writers and on a node that never writes.
    """
    d = DeploymentBuilder(num_nodes=8, seed=29).build()
    managed = d.register_object("obj", config)
    middlewares = managed.middlewares
    if reference:
        for mw in middlewares.values():
            mw.detection._on_remote_digest = types.MethodType(
                always_evaluate, mw)
    published = []
    if watch:
        d.bus.subscribe(DetectionEvaluated, published.append)
    for w, node_id in enumerate(d.node_ids[:WRITERS]):
        timer = PeriodicTimer(
            d.sim, (lambda m=middlewares[node_id]: m.write(metadata_delta=1.0)),
            period=WRITE_PERIOD, label="wl:obj")
        d.sim.call_at(0.05 + WRITE_PERIOD * w / WRITERS, timer.start)
    observed = []

    def observe():
        for node_id in (d.node_ids[0], d.node_ids[2], d.node_ids[6]):
            mw = middlewares[node_id]
            read = mw.read(include_content=False)
            observed.append((d.sim.now, node_id, "read", read.level,
                             read.acceptable))
            observed.append((d.sim.now, node_id, "detect",
                             mw.detection.detect()))
            quiet = mw.read(new_snapshot=False, quiet_threshold=1e9,
                            include_content=False)
            observed.append((d.sim.now, node_id, "level", quiet.level))

    for k in range(1, int(RUN_FOR / 1.7)):
        d.sim.call_at(1.7 * k + 0.013, observe)
    for when, action in script:
        d.sim.call_at(when, lambda action=action: action(d))
    d.run(until=RUN_FOR)
    return {
        "events": d.sim.events_processed,
        "triggered": {n: mw.resolutions_triggered
                      for n, mw in middlewares.items()},
        "resolutions": list(managed.resolutions),
        "histories": {n: list(mw.resolution.history)
                      for n, mw in middlewares.items()},
        "observed": observed,
        "outcomes": {n: list(mw.detection_outcomes)
                     for n, mw in middlewares.items()},
        "final_levels": {n: mw.current_level()
                         for n, mw in middlewares.items()},
        "sent": dict(d.network.stats.sent),
        "published": published,
    }


def _on(node_index, call):
    """A script action: ``call(middleware of the node_index-th node)``."""
    return lambda d: call(d.objects["obj"].middlewares[d.node_ids[node_index]])


SCENARIOS = {
    "hint-0": (_config(AdaptationMode.HINT_BASED, 0.0), ()),
    "hint-0.6": (_config(AdaptationMode.HINT_BASED, 0.6), ()),
    "on-demand": (_config(AdaptationMode.ON_DEMAND, 0.0), ()),
    "on-demand-learned-threshold": (
        _config(AdaptationMode.ON_DEMAND, 0.7), ()),
    # the bare controller flag: a demand left *pending* for the next digest
    "on-demand-pending-demand": (
        _config(AdaptationMode.ON_DEMAND, 0.0),
        [(4.31, _on(1, lambda mw: mw.controller.demand_resolution())),
         (7.77, _on(5, lambda mw: mw.controller.demand_resolution()))]),
    "automatic": (_config(AdaptationMode.AUTOMATIC, 0.0, background=2.0), ()),
    "set-hint-mid-run": (
        _config(AdaptationMode.HINT_BASED, 0.0),
        [(4.31, _on(1, lambda mw: mw.set_hint(0.5))),
         (6.02, _on(6, lambda mw: mw.set_hint(0.9))),
         (9.4, _on(1, lambda mw: mw.set_hint(0.0)))]),
    "hint-complaint-mid-run": (
        _config(AdaptationMode.HINT_BASED, 0.0),
        [(4.31, _on(2, lambda mw: mw.complain()))]),
    "on-demand-complaint-mid-run": (
        _config(AdaptationMode.ON_DEMAND, 0.0),
        [(4.31, _on(2, lambda mw: mw.complain())),
         (8.05, _on(7, lambda mw: mw.demand_active_resolution()))]),
}


class TestLevelsOnDemand:
    @pytest.mark.parametrize("watch", [False, True],
                             ids=["unwatched", "subscriber"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_twin_runs_are_indistinguishable(self, name, watch):
        config, script = SCENARIOS[name]
        ours = _run_scenario(config, reference=False, watch=watch,
                             script=script)
        theirs = _run_scenario(config, reference=True, watch=watch,
                               script=script)
        for key in theirs:
            assert ours[key] == theirs[key], key
        assert ours["observed"], "the scenario observed nothing"
        if watch:
            assert ours["published"]

    def test_the_scenarios_cover_both_sides_of_the_question(self):
        """Some scenarios resolve because of a level, some never do."""
        triggered = {
            name: sum(_run_scenario(config, reference=False, watch=False,
                                    script=script)["triggered"].values())
            for name, (config, script) in SCENARIOS.items()}
        assert triggered["hint-0"] == 0
        assert triggered["on-demand"] == 0
        assert triggered["automatic"] == 0
        for name in ("hint-0.6", "on-demand-learned-threshold",
                     "on-demand-pending-demand", "set-hint-mid-run",
                     "hint-complaint-mid-run", "on-demand-complaint-mid-run"):
            assert triggered[name] > 0, name

    @pytest.mark.parametrize("mode, change", [
        (AdaptationMode.HINT_BASED, lambda mw: mw.set_hint(0.5)),
        (AdaptationMode.ON_DEMAND, lambda mw: mw.set_hint(0.5)),
        (AdaptationMode.ON_DEMAND,
         lambda mw: mw.controller.demand_resolution()),
    ], ids=["set_hint", "learned-threshold", "pending-demand"])
    def test_a_change_takes_effect_on_the_very_next_digest(self, mode, change):
        """The controller is asked per digest, not remembered: after hours
        at hint 0 the first digest after the change starts the round."""
        d = DeploymentBuilder(num_nodes=8, seed=31).build()
        managed = d.register_object("obj", _config(mode, 0.0))
        a, b, c = (managed.middlewares[n] for n in d.node_ids[:3])
        for k in range(4):
            for mw in (a, b, c):
                mw.write(metadata_delta=1.0)
            d.run(until=k + 1.0)
        d.run(until=5.0)  # everyone knows everyone diverged; nobody resolves
        assert a.current_level() < 0.5
        assert a.resolutions_triggered == 0
        change(a)
        assert a.resolutions_triggered == 0  # the change itself starts nothing
        b.write(metadata_delta=1.0)
        before = a.detection.peer_digests[b.node.node_id]
        while a.detection.peer_digests[b.node.node_id] is before:
            d.sim.run(max_events=d.sim.events_processed + 1)
        assert a.resolutions_triggered == 1

    def test_complaint_resolves_at_once_and_keeps_watching(self):
        d = DeploymentBuilder(num_nodes=8, seed=31).build()
        managed = d.register_object(
            "obj", _config(AdaptationMode.HINT_BASED, 0.0))
        a, b = (managed.middlewares[n] for n in d.node_ids[:2])
        a.write(metadata_delta=1.0)
        b.write(metadata_delta=1.0)
        d.run(until=2.0)
        assert not a.controller.acts_on_levels()
        a.complain()
        assert a.resolutions_triggered == 1
        assert a.controller.acts_on_levels()

    def test_unwatched_hint_zero_delivery_evaluates_nothing(self):
        """What the saving is: no level, no local-digest lookup per digest."""
        d = DeploymentBuilder(num_nodes=8, seed=31).build()
        managed = d.register_object(
            "obj", _config(AdaptationMode.HINT_BASED, 0.0))
        a, b = (managed.middlewares[n] for n in d.node_ids[:2])
        a.write(metadata_delta=1.0)
        b.write(metadata_delta=1.0)
        d.run(until=2.0)
        cache = a.runtime.digests
        a.current_level()
        memo, lookups = a.detection._eval_memo, cache.hits + cache.misses
        b.write(metadata_delta=1.0)
        d.run(until=4.0)
        assert a.detection.peer_digests[b.node.node_id].total == 2
        assert a.detection._eval_memo is memo
        assert cache.hits + cache.misses == lookups
        # ... and the level is there the moment somebody asks
        assert a.current_level() < memo[2]


# ==================================================================== ranking

def select_top_reference(tracker, time):
    """``TemperatureTracker.select_top`` as it was: a dict of temperatures
    through one ``temperature()`` call per node, a Python sort key, two
    filters."""
    cfg = tracker.config
    temps = {n: tracker.temperature(n, time) for n in tracker._scores}
    ranked = sorted(temps, key=lambda n: (-temps[n], n))

    hot = [n for n in ranked if temps[n] >= cfg.hot_threshold]
    if len(hot) < cfg.min_top_size:
        hot = ranked[:cfg.min_top_size]
    return hot[:cfg.max_top_size]


NODES = [f"n{i:02d}" for i in range(9)]
#: quarter-second grid: exact ties in both update time and score are common
TIMES = st.integers(0, 80).map(lambda q: q / 4.0)

tracker_configs = st.builds(
    lambda half_life, threshold, sizes: TemperatureConfig(
        half_life=half_life, hot_threshold=threshold,
        max_top_size=max(sizes), min_top_size=min(sizes)),
    st.sampled_from([0.5, 10.0, 60.0, 600.0]),
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 50.0]),
    st.tuples(st.integers(0, 10), st.integers(1, 10)))

updates = st.lists(st.tuples(st.sampled_from(NODES), TIMES,
                             st.sampled_from([1.0, 1.0, 0.5, 2.0, 1e-12])),
                   max_size=40)


class TestSelectTopAgainstReference:
    @settings(max_examples=400, deadline=None)
    @given(config=tracker_configs, updates=updates, time=TIMES,
           zeroed=st.sets(st.sampled_from(NODES)),
           forgotten=st.sets(st.sampled_from(NODES)))
    def test_same_list(self, config, updates, time, zeroed, forgotten):
        """Random scores, update times on both sides of the query time
        (negative ``dt``), exact ties, zero scores, every size corner."""
        tracker = TemperatureTracker("obj", config)
        for node, when, weight in updates:   # not in time order, on purpose
            tracker.record_update(node, when, weight)
        for node in zeroed & set(tracker._scores):
            tracker._scores[node] = 0.0
        assert tracker.select_top(time) == select_top_reference(tracker, time)
        for node in forgotten:
            tracker.forget(node)
        top = tracker.select_top(time)
        assert top == select_top_reference(tracker, time)
        assert not set(top) & forgotten

    def test_the_temperatures_ranked_are_temperature_s_floats(self):
        """Not the log-key form: the rank of a near-tie is decided by the
        floats ``temperature()`` returns, to the last bit."""
        tracker = TemperatureTracker("obj", TemperatureConfig(
            half_life=60.0, hot_threshold=0.0, max_top_size=9))
        for i, node in enumerate(NODES):
            tracker.record_update(node, 0.1 * i)
            tracker.record_update(node, 7.0 + 0.37 * i, weight=1.0 + 1e-15 * i)
        for time in (7.0, 11.3, 1e3, 1e5):
            temps = {n: tracker.temperature(n, time) for n in NODES}
            assert tracker.select_top(time) == sorted(
                NODES, key=lambda n: (-temps[n], n))

    def test_fallback_and_cap(self):
        cfg = TemperatureConfig(half_life=1.0, hot_threshold=0.5,
                                max_top_size=3, min_top_size=2)
        tracker = TemperatureTracker("obj", cfg)
        for node in NODES[:5]:
            tracker.record_update(node, 0.0)
        assert tracker.select_top(0.0) == NODES[:3]          # capped
        assert tracker.select_top(100.0) == NODES[:2]        # all cold


# ====================================================================== write

LOCAL_WRITERS = ("me", "app", "zed")
DELTAS = (0.1, 0.7, -0.3, 1e-9, 3.0, 0.0)


class TestLocalWriteAgainstApplyUpdate:
    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(st.tuples(
        st.sampled_from(["write", "remote", "block", "unblock", "truncate"]),
        st.sampled_from(LOCAL_WRITERS), st.sampled_from(DELTAS)),
        min_size=1, max_size=30))
    def test_twin_replicas_stay_equal(self, steps):
        """``local_write`` on one replica, ``apply_update`` of the very same
        record on its twin: vector, applied-at stamps and tombstones,
        ``revision`` and blocked-write accounting."""
        ours, twin = Replica("me", "x"), Replica("me", "x")
        now = 0.0
        for kind, writer, delta in steps:
            now += 0.5
            if kind == "write":
                record = ours.local_write(writer, now - 0.125,
                                          metadata_delta=delta,
                                          payload=("p", now), applied_at=now)
                if twin.write_blocked:
                    twin.blocked_writes += 1
                    assert record is None
                else:
                    assert record.seq == twin.next_seq(writer)
                    assert twin.apply_update(record, applied_at=now)
            elif kind == "remote":
                record = UpdateRecord("far", ours.next_seq("far"), now, delta)
                assert ours.apply_update(record, applied_at=now)
                assert twin.apply_update(record, applied_at=now)
            elif kind == "truncate":
                for replica in (ours, twin):
                    replica.truncate_stable(replica.vector.counts(),
                                            keep_after=now - 2.0)
            else:
                for replica in (ours, twin):
                    (replica.block_writes if kind == "block"
                     else replica.unblock_writes)()
            assert ours.vector == twin.vector
            assert ours.vector.metadata == twin.vector.metadata
            assert ours.vector.counts() == twin.vector.counts()
            assert ours._stamps == twin._stamps
            assert ours._dead == twin._dead
            assert ours.revision == twin.revision
            assert ours.blocked_writes == twin.blocked_writes

    def test_applied_at_defaults_to_the_timestamp(self):
        replica = Replica("me", "x")
        record = replica.local_write("me", 3.5)
        assert replica._stamps == {"me": [3.5]}
        assert replica.last_applied_at() == 3.5
