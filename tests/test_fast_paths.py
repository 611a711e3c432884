"""Each fast path of the detection hot path ≡ what it replaced.

Four equivalences, each against a reference written out here:

* **levels on demand** — ``IdeaMiddleware._on_remote_digest`` evaluates a
  level only when a controller or a subscriber consumes it; the reference is
  the always-evaluating handler, kept below verbatim;
* **one-writer digest rebuilds** — ``DigestCache.local_digest`` extends the
  previous digest after a single-record apply; the reference is
  ``VersionDigest.from_replica``, and four seeded mutations of the fast
  path's guards must each fail the same state machine;
* **one-pass ranking** — ``TemperatureTracker.select_top``; the reference is
  the dict-and-lambda body it replaced, kept below verbatim;
* **the direct local write** — ``Replica.local_write``; the reference is
  ``apply_update`` of the same record on a twin.

CI replays this file under ``PYTHONHASHSEED=0`` and ``=1``: the top-layer
order is the digest fan-out order, hence the RNG draw order.
"""

from __future__ import annotations

import dataclasses
import types

import pytest
from hypothesis import Phase, given, settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, rule,
                                 run_state_machine_as_test)

from repro.core.config import (AdaptationMode, ConsistencyMetricSpec,
                               IdeaConfig)
from repro.core.deployment import DeploymentBuilder
from repro.core.detection import VersionDigest, WriterSummary
from repro.overlay.temperature import TemperatureConfig, TemperatureTracker
from repro.runtime.digest_cache import DigestCache
from repro.runtime.events import DetectionEvaluated
from repro.store.replica import Replica
from repro.transport.timers import PeriodicTimer
from repro.versioning.extended_vector import ErrorTriple, UpdateRecord


# ===================================================================== levels

def always_evaluate(self, digest):
    """``IdeaMiddleware._on_remote_digest`` as it was before levels were
    computed on demand: evaluate after every ingested digest, then ask."""
    level = self.detection.current_level()
    if self.bus.wants(DetectionEvaluated):
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
        assert a.detection.peer_digests[b.node.node_id].total() == 2
        assert a.detection._eval_memo is memo
        assert cache.hits + cache.misses == lookups
        # ... and the level is there the moment somebody asks
        assert a.current_level() < memo[2]


# ===================================================================== digest

OBJECTS = ("x", "y")
LOCAL_WRITERS = ("me", "app", "zed")
REMOTE_WRITERS = ("A", "B", "m")      # "m" sorts between the local writers
DELTAS = (0.1, 0.7, -0.3, 1e-9, 3.0, 0.0)


class MutantDigestCache(DigestCache):
    """``DigestCache.local_digest`` with one guard of the one-writer path
    broken — what the state machine below must be able to tell apart."""

    def __init__(self, mutation, replicas):
        super().__init__()
        self.mutation = mutation
        self.replicas = replicas

    def local_digest(self, object_id, replica, now):
        entry = self._local.get(object_id)
        revision = replica.revision
        if entry is not None and entry[0] == revision:
            self.hits += 1
            return entry[1]
        self.misses += 1
        digest = None
        last = replica.last_apply
        if (self.mutation == "hint-of-another-replica"
                and (last is None or last[0] != revision)):
            # hints looked up by revision number alone, not per replica
            for other in self.replicas.values():
                if other.last_apply is not None and other.last_apply[0] == revision:
                    last = other.last_apply
        if entry is not None and last is not None and (
                (self.mutation == "stale-hint" or last[0] == revision)
                and (self.mutation == "revision-skipped"
                     or revision == entry[0] + 1)):
            digest = self._extend(object_id, entry[1], replica, last[1], now)
        if digest is None:
            digest = self._rebuild(object_id, replica, now)
        self._local[object_id] = (revision, digest)
        return digest

    def _extend(self, object_id, previous, replica, record, now):
        summaries = self._summaries[object_id]
        if (self.mutation == "writer-set-changed"
                and record.writer not in summaries):
            # a new writer's pair put where the old tuple ends
            summary = WriterSummary(1, 0.0 + record.metadata_delta,
                                    record.timestamp)
            pair = (record.writer, summary)
            summaries[record.writer] = (1, summary.cumulative_metadata,
                                        summary.last_timestamp, pair)
            vector = replica.vector
            return VersionDigest(object_id, replica.node_id, now,
                                 previous.writers + (pair,), vector.metadata,
                                 vector.last_consistent_time)
        return super()._extend(object_id, previous, replica, record, now)


class DigestCacheAgainstReference(RuleBasedStateMachine):
    """Two replicas behind one ``DigestCache``, every mutation a replica
    has, lookups skipped at random; every lookup must return exactly
    ``VersionDigest.from_replica`` and recycle every untouched pair."""

    mutation = None

    def __init__(self):
        super().__init__()
        self.replicas = {obj: Replica("me", obj) for obj in OBJECTS}
        self.cache = (DigestCache() if self.mutation is None
                      else MutantDigestCache(self.mutation, self.replicas))
        self.now = 0.0
        #: object -> the digest its last lookup returned
        self.seen = {}
        #: object -> writers applied one record at a time since that lookup,
        #: or None once anything else happened to the replica
        self.singles = {obj: None for obj in OBJECTS}

    # ------------------------------------------------------------- helpers
    def _tick(self):
        self.now += 0.5
        return self.now

    def _next(self, obj, writer, delta, behind=0.0):
        vector = self.replicas[obj].vector
        return UpdateRecord(writer=writer, seq=vector.count(writer) + 1,
                            timestamp=self.now - behind, metadata_delta=delta)

    def _mutated(self, obj, single=None):
        singles = self.singles[obj]
        if single is None or singles is None:
            self.singles[obj] = None
        else:
            singles.append(single)

    def _look(self, obj):
        replica = self.replicas[obj]
        now = self._tick()
        lookups = self.cache.hits + self.cache.misses
        digest = self.cache.local_digest(obj, replica, now)
        assert self.cache.hits + self.cache.misses == lookups + 1
        reference = VersionDigest.from_replica(replica, now)
        previous = self.seen.get(obj)
        if digest is previous:
            # a hit: the replica has not moved, only the clock has
            assert self.singles[obj] == []
            reference = dataclasses.replace(reference,
                                            issued_at=digest.issued_at)
        assert digest == reference
        assert list(digest.writers) == sorted(digest.writers)
        assert digest.total() == sum(s.count for _, s in reference.writers)
        assert digest.counts() == reference.counts()
        singles = self.singles[obj]
        if previous is not None and singles is not None and len(singles) == 1:
            # one record applied since the last lookup: every other
            # writer's pair is the very object the previous digest held
            for pair in digest.writers:
                if pair[0] != singles[0]:
                    assert any(pair is kept for kept in previous.writers)
        self.seen[obj] = digest
        self.singles[obj] = []

    # --------------------------------------------------------------- rules
    @rule(obj=st.sampled_from(OBJECTS))
    def lookup(self, obj):
        self._look(obj)

    @rule(obj=st.sampled_from(OBJECTS), writer=st.sampled_from(LOCAL_WRITERS),
          delta=st.sampled_from(DELTAS), look=st.booleans())
    def local_write(self, obj, writer, delta, look):
        self.replicas[obj].local_write(writer, self._tick(),
                                       metadata_delta=delta)
        self._mutated(obj, single=writer)
        if look:
            self._look(obj)

    @rule(obj=st.sampled_from(OBJECTS), writer=st.sampled_from(REMOTE_WRITERS),
          delta=st.sampled_from(DELTAS), behind=st.sampled_from([0.0, 2.25]),
          look=st.booleans())
    def apply_update(self, obj, writer, delta, behind, look):
        self._tick()
        record = self._next(obj, writer, delta, behind)
        assert self.replicas[obj].apply_update(record, applied_at=self.now)
        self._mutated(obj, single=writer)
        if look:
            self._look(obj)

    @rule(obj=st.sampled_from(OBJECTS),
          writers=st.lists(st.sampled_from(REMOTE_WRITERS + LOCAL_WRITERS),
                           min_size=1, max_size=4),
          delta=st.sampled_from(DELTAS), look=st.booleans())
    def apply_updates(self, obj, writers, delta, look):
        """A bulk install — of one record too, which moves ``revision`` by
        one exactly as a single apply does, and leaves no hint."""
        self._tick()
        replica = self.replicas[obj]
        counts, records = {}, []
        for writer in writers:
            counts[writer] = counts.get(writer, replica.vector.count(writer)) + 1
            records.append(UpdateRecord(writer=writer, seq=counts[writer],
                                        timestamp=self.now,
                                        metadata_delta=delta))
        assert replica.apply_updates(records, applied_at=self.now) == len(records)
        self._mutated(obj)
        if look:
            self._look(obj)

    @rule(obj=st.sampled_from(OBJECTS), keep=st.integers(0, 2),
          look=st.booleans())
    def truncate_stable(self, obj, keep, look):
        replica = self.replicas[obj]
        frontier = {w: max(0, c - keep)
                    for w, c in replica.vector.counts().as_dict().items()}
        if replica.truncate_stable(frontier, keep_content=False):
            self._mutated(obj)
        if look:
            self._look(obj)

    @rule(obj=st.sampled_from(OBJECTS), look=st.booleans())
    def mark_consistent(self, obj, look):
        self.replicas[obj].mark_consistent(self._tick())
        self._mutated(obj)
        if look:
            self._look(obj)

    @rule(obj=st.sampled_from(OBJECTS), look=st.booleans())
    def attach_triple(self, obj, look):
        self.replicas[obj].attach_triple(ErrorTriple(1.0, 2.0, 0.5))
        self._mutated(obj)
        if look:
            self._look(obj)

    @rule(obj=st.sampled_from(OBJECTS), data=st.data(), look=st.booleans())
    def invalidate(self, obj, data, look):
        replica = self.replicas[obj]
        keys = sorted(replica.log.record_keys())
        if keys:
            replica.invalidate_updates([data.draw(st.sampled_from(keys))])
            self._mutated(obj)
        if look:
            self._look(obj)

    @rule(obj=st.sampled_from(OBJECTS), back=st.sampled_from([0.5, 1.5]),
          look=st.booleans())
    def roll_back(self, obj, back, look):
        replica = self.replicas[obj]
        horizon = max(self.now - back, replica.log.checkpoint.applied_through)
        replica.roll_back_after(horizon)
        self._mutated(obj)
        if look:
            self._look(obj)

    @rule(obj=st.sampled_from(OBJECTS))
    def forget_object(self, obj):
        self.cache.forget_object(obj)
        self.seen.pop(obj, None)
        self.singles[obj] = None


DIGEST_SETTINGS = settings(max_examples=200, stateful_step_count=50,
                           deadline=None)
DigestCacheAgainstReference.TestCase.settings = DIGEST_SETTINGS
TestDigestCacheAgainstReference = DigestCacheAgainstReference.TestCase


@pytest.mark.parametrize("mutation", [
    "stale-hint",                 # e.g. a hint outliving a one-record install
    "hint-of-another-replica",
    "writer-set-changed",
    "revision-skipped",
])
def test_the_digest_machine_catches_a_seeded_mutation(mutation):
    machine = type(f"Mutant_{mutation.replace('-', '_')}",
                   (DigestCacheAgainstReference,), {"mutation": mutation})
    with pytest.raises(AssertionError):
        # found is enough: no shrinking, no example database, a fixed seed
        run_state_machine_as_test(machine, settings=settings(
            DIGEST_SETTINGS, max_examples=1000, derandomize=True,
            database=None, phases=[Phase.generate]))


def test_one_writer_rebuild_is_taken_and_seeds_the_total(monkeypatch):
    """The fast path is the path a write takes — not a lucky fallback."""
    cache, replica = DigestCache(), Replica("me", "x")
    for writer in ("a", "b", "c"):
        replica.apply_update(UpdateRecord(writer, 1, 1.0, 0.5), applied_at=1.0)
    first = cache.local_digest("x", replica, 1.0)
    assert "_total" not in first.__dict__
    replica.local_write("b", 2.0, metadata_delta=0.25)
    monkeypatch.setattr(DigestCache, "_rebuild", None)  # walking would raise
    second = cache.local_digest("x", replica, 2.0)
    assert second.__dict__["_total"] == 4 == second.total()
    assert second == VersionDigest.from_replica(replica, 2.0)
    assert [new is old for new, old in zip(second.writers, first.writers)] == [
        True, False, True]


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

class TestLocalWriteAgainstApplyUpdate:
    @settings(max_examples=100, deadline=None)
    @given(steps=st.lists(st.tuples(
        st.sampled_from(["write", "remote", "block", "unblock", "truncate"]),
        st.sampled_from(LOCAL_WRITERS), st.sampled_from(DELTAS)),
        min_size=1, max_size=30))
    def test_twin_replicas_stay_equal(self, steps):
        """``local_write`` on one replica, ``apply_update`` of the very same
        record on its twin: vector, log entries with ``applied_at``,
        ``revision``, the last-apply hint and blocked-write accounting."""
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
            assert ours.log.entries(include_dead=True) == \
                twin.log.entries(include_dead=True)
            assert ours.log.live_metadata() == twin.log.live_metadata()
            assert ours.revision == twin.revision
            assert ours.last_apply == twin.last_apply
            assert ours.blocked_writes == twin.blocked_writes

    def test_applied_at_defaults_to_the_timestamp(self):
        replica = Replica("me", "x")
        record = replica.local_write("me", 3.5)
        assert replica.log.get(record.key()).applied_at == 3.5
        assert replica.last_apply == (1, record)

    def test_only_single_record_applies_leave_the_hint(self):
        replica = Replica("me", "x")
        record = replica.local_write("me", 1.0)
        hint = (replica.revision, record)
        assert replica.last_apply == hint
        replica.apply_updates([UpdateRecord("far", 1, 2.0)], applied_at=2.0)
        replica.mark_consistent(3.0)
        replica.attach_triple(ErrorTriple(1.0, 0.0, 0.0))
        replica.invalidate_updates([("far", 1)])
        replica.roll_back_after(2.5)
        replica.truncate_stable({"me": 1})
        assert replica.last_apply == hint       # nobody touched it ...
        assert replica.revision > hint[0]       # ... and it is stale
        assert not replica.apply_update(record, applied_at=4.0)  # duplicate
        assert replica.last_apply == hint
