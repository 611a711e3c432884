"""Stability-driven checkpoint/truncation correctness.

The load-bearing claim of the checkpoint ⊕ tail layout is *observable
equivalence*: a truncated replica answers every query the protocols pose —
content reads, digests, detection triples, resolution merges — identically
to an untruncated oracle, while operations that genuinely need folded
records fail loudly instead of silently lying.  The property test drives a
replica pair through random interleavings of writes, remote applies,
invalidations and truncations against an oracle replica that never
truncates; the golden-trace tests replay pinned deployment scenarios with
and without periodic truncation and check the event/write stream against
the same literal counts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import AdaptationMode, IdeaConfig
from repro.core.deployment import DeploymentBuilder
from repro.core.detection import VersionDigest, build_reference
from repro.overlay.temperature import TemperatureConfig
from repro.overlay.two_layer import OverlayConfig
from repro.store.replica import Replica
from repro.transport.timers import PeriodicTimer
from repro.versioning.extended_vector import (
    ExtendedVersionVector,
    TruncatedHistoryError,
    UpdateRecord,
    WriterBase,
)
from repro.versioning.version_vector import VersionVector
from repro.versioning.writers import WriterTable
from repro.workloads import (
    ClientPopulation, ConstantRate, OpMix, UniformPopularity, ZipfPopularity)


def rec(writer, seq, ts, delta=1.0, payload=None):
    return UpdateRecord(writer=writer, seq=seq, timestamp=ts,
                        metadata_delta=delta,
                        payload=payload if payload is not None else f"{writer}#{seq}")


# --------------------------------------------------------------- writer table
class TestWriterTable:
    def test_intern_is_dense_and_stable(self):
        table = WriterTable()
        assert table.intern("a") == 0
        assert table.intern("b") == 1
        assert table.intern("a") == 0
        assert table.name_of(1) == "b"
        assert len(table) == 2
        assert "a" in table and "c" not in table

    def test_dense_projection_matches_dict_compare(self):
        # The dense order distance must agree with the classic per-writer walk.
        a = VersionVector({"w1": 3, "w2": 1})
        b = VersionVector({"w1": 2})
        c = VersionVector({"w3": 1})

        def walk(x, y):
            return sum(abs(x.count(w) - y.count(w))
                       for w in {*x.writers(), *y.writers()})

        for x, y in [(a, b), (b, a), (a, c), (c, b)]:
            assert x.order_distance(y) == walk(x, y)
        assert a.order_distance(b) == b.order_distance(a) == 2
        # per writer: a dominates b, and a and c are concurrent
        assert all(a.count(w) >= b.count(w) for w in b.writers())
        assert any(b.count(w) < a.count(w) for w in a.writers())
        assert any(a.count(w) < c.count(w) for w in c.writers())
        assert any(c.count(w) < a.count(w) for w in a.writers())


# ---------------------------------------------------------------- vector base
class TestVectorCheckpoint:
    def test_truncate_preserves_counts_metadata_digest(self):
        records = [rec("A", 1, 1.0, 2.0), rec("A", 2, 3.0, 1.5),
                   rec("B", 1, 2.0, 4.0)]
        full = ExtendedVersionVector.from_updates(records)
        cut = full.truncate_to({"A": 1})
        assert cut.counts() == full.counts()
        assert cut.count("A") == 2 and cut.base_count("A") == 1
        assert cut.metadata == full.metadata
        assert cut.total_updates() == full.total_updates()
        d_full = VersionDigest.from_vector("o", "n", full, 5.0)
        d_cut = VersionDigest.from_vector("o", "n", cut, 5.0)
        assert d_cut.latest_update_time() == d_full.latest_update_time()
        assert d_full == d_cut

    def test_truncate_clamps_and_is_idempotent(self):
        full = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        cut = full.truncate_to({"A": 99, "B": 5})
        assert cut.base_count("A") == 1
        assert cut.base_count("B") == 0
        assert cut.truncate_to({"A": 1}) is cut

    def test_apply_continues_above_base(self):
        cut = ExtendedVersionVector.from_updates(
            [rec("A", 1, 1.0)]).truncate_to({"A": 1})
        grown = cut.apply(rec("A", 2, 2.0))
        assert grown.count("A") == 2
        # duplicates below the base stay idempotent
        assert grown.apply(rec("A", 1, 1.0)) is grown
        with pytest.raises(ValueError):
            grown.apply(rec("A", 4, 4.0))

    def test_merge_of_truncated_vectors(self):
        records = [rec("A", 1, 1.0), rec("A", 2, 2.0), rec("B", 1, 1.5)]
        full_a = ExtendedVersionVector.from_updates(records)
        full_b = ExtendedVersionVector.from_updates(
            records + [rec("B", 2, 3.0)])
        cut_a = full_a.truncate_to({"A": 2})
        merged = cut_a.merge(full_b, consistent_time=4.0)
        oracle = full_a.merge(full_b, consistent_time=4.0)
        assert merged.counts() == oracle.counts()
        assert merged.metadata == pytest.approx(oracle.metadata)
        assert merged.base_count("A") == 2

    def test_missing_from_raises_below_checkpoint(self):
        full = ExtendedVersionVector.from_updates(
            [rec("A", 1, 1.0), rec("A", 2, 2.0)])
        cut = full.truncate_to({"A": 2})
        behind = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        with pytest.raises(TruncatedHistoryError):
            cut.missing_from(behind)
        # a peer at or above the base is served from the tail
        assert cut.apply(rec("A", 3, 3.0)).missing_from(full) == [
            rec("A", 3, 3.0)]

    def test_writer_base_fold_matches_scratch_summary(self):
        records = (rec("A", 1, 5.0, 1.25), rec("A", 2, 2.0, 0.5))
        folded = WriterBase.EMPTY.fold(records)
        assert folded.count == 2
        assert folded.cum_metadata == pytest.approx(1.75)
        assert folded.last_timestamp == 5.0


# ---------------------------------------------------------- record checkpoint
class TestRecordCheckpoint:
    def make_replica(self, n=6):
        replica = Replica("n0", "obj")
        for i in range(1, n + 1):
            replica.apply_update(rec("A", i, float(i)), applied_at=float(i))
        return replica

    def test_truncate_folds_prefix(self):
        replica = self.make_replica()
        assert replica.truncate_stable({"A": 4}) == 4
        assert replica.vector.total_updates() == 6   # applied total unchanged
        assert replica.retained_log_entries() == 2
        assert replica.vector.base_count("A") == 4
        assert not replica.apply_update(rec("A", 2, 2.0), applied_at=9.0)
        assert replica.metadata == pytest.approx(6.0)
        assert replica.content() == [f"A#{i}" for i in range(1, 7)]

    def test_truncate_respects_window(self):
        replica = self.make_replica()
        assert replica.truncate_stable({"A": 6}, keep_after=3.5) == 3
        assert replica.retained_log_entries() == 3

    def test_apply_below_checkpoint_is_duplicate(self):
        replica = self.make_replica()
        replica.truncate_stable({"A": 4})
        assert not replica.apply_update(rec("A", 3, 3.0), applied_at=9.0)
        assert replica.apply_update(rec("A", 7, 7.0), applied_at=9.0)

    def test_missing_from_counts_is_checkpoint_aware(self):
        replica = self.make_replica()
        replica.truncate_stable({"A": 3})
        missing = replica.missing_from(VersionVector({"A": 4}))
        assert [r.seq for r in missing] == [5, 6]
        with pytest.raises(TruncatedHistoryError):
            replica.missing_from(VersionVector({"A": 1}))

    def test_missing_from_raises_for_fully_folded_writer(self):
        # Writer A's whole history folds (tail empties); a peer behind the
        # checkpoint must still get a loud error, not a silent empty answer.
        replica = self.make_replica(3)
        replica.apply_update(rec("B", 1, 9.0), applied_at=9.0)
        replica.truncate_stable({"A": 3})
        with pytest.raises(TruncatedHistoryError):
            replica.missing_from(VersionVector({"B": 1}))
        # a peer that holds the folded prefix is served normally
        assert [r.key() for r in replica.missing_from(VersionVector({"A": 3}))] \
            == [("B", 1)]

    def test_invalidate_below_checkpoint_is_counted(self):
        replica = self.make_replica()
        replica.truncate_stable({"A": 4})
        assert replica.invalidate_updates([("A", 2), ("A", 5)]) == 1
        assert replica.truncation_stats.invalidate_below_checkpoint == 1

    def test_dropped_content_read_raises(self):
        replica = self.make_replica()
        replica.truncate_stable({"A": 4}, keep_content=False)
        with pytest.raises(TruncatedHistoryError):
            replica.content()
        assert replica.metadata == pytest.approx(6.0)  # metadata survives


# ------------------------------------------------------------ replica counters
class TestReplicaTruncation:
    def build_pair(self):
        """A truncated replica and an identically-written oracle."""
        truncated = Replica("n0", "obj")
        oracle = Replica("n0", "obj")
        for r in [rec("A", 1, 1.0, 2.0), rec("B", 1, 1.5, 1.0),
                  rec("A", 2, 2.0, 0.5)]:
            truncated.apply_update(r, applied_at=r.timestamp)
            oracle.apply_update(r, applied_at=r.timestamp)
        return truncated, oracle

    def test_truncate_stable_folds_the_vector(self):
        replica, _ = self.build_pair()
        folded = replica.truncate_stable(VersionVector({"A": 2, "B": 1}),
                                         keep_after=1.6)
        assert folded == 2
        assert replica.vector.base_count("A") == 1
        assert replica.vector.base_count("B") == 1
        assert replica.retained_log_entries() == 1
        assert replica.truncation_stats.truncations == 1
        assert replica.truncation_stats.entries_folded == 2

    def test_counters_for_below_checkpoint_mutations(self):
        replica, _ = self.build_pair()
        replica.truncate_stable(VersionVector({"A": 1, "B": 1}))
        assert replica.invalidate_updates([("A", 1)]) == 0
        assert replica.truncation_stats.invalidate_below_checkpoint == 1

    def test_truncated_replica_observably_equals_oracle(self):
        replica, oracle = self.build_pair()
        replica.truncate_stable(VersionVector({"A": 1, "B": 1}))
        assert replica.content() == oracle.content()
        assert replica.metadata == oracle.metadata
        assert replica.vector.counts() == oracle.vector.counts()
        d_t = VersionDigest.from_replica(replica, issued_at=3.0)
        d_o = VersionDigest.from_replica(oracle, issued_at=3.0)
        assert d_t == d_o
        ref = ExtendedVersionVector.from_updates(
            [rec("A", 1, 1.0, 2.0), rec("A", 2, 2.0, 0.5),
             rec("B", 1, 1.5, 1.0), rec("B", 2, 4.0, 3.0)])
        reference = build_reference([VersionDigest.from_vector("o", "ref", ref, 3.0)])
        assert reference.triple_for(d_t) == reference.triple_for(d_o)

    def test_install_merged_behind_checkpoint_counts_and_raises(self):
        replica, _ = self.build_pair()
        merged = replica.vector.truncate_to({"A": 2, "B": 1})
        cold = Replica("n9", "obj")
        with pytest.raises(TruncatedHistoryError):
            cold.install_merged(merged.delta_above({}), now=5.0)
        assert cold.truncation_stats.installs_behind_checkpoint == 1


# ----------------------------------------------------------- property testing
WRITERS = ("A", "B", "C")


@st.composite
def replica_histories(draw):
    """A per-writer count profile plus an interleaving of applies."""
    counts = {w: draw(st.integers(min_value=0, max_value=8)) for w in WRITERS}
    records = []
    for w, n in counts.items():
        for seq in range(1, n + 1):
            ts = draw(st.floats(min_value=0, max_value=50, allow_nan=False,
                                allow_infinity=False))
            delta = draw(st.floats(min_value=-4, max_value=4, allow_nan=False,
                                   allow_infinity=False))
            records.append(rec(w, seq, ts, delta))
    order = draw(st.permutations(records))
    return order


class TestTruncationProperties:
    @settings(max_examples=60, deadline=None)
    @given(replica_histories(), st.data())
    def test_truncated_replica_matches_untruncated_oracle(self, records, data):
        """Any valid frontier sequence leaves the replica observably equal
        to an oracle that never truncates: reads, metadata, counts, digests,
        last apply, anti-entropy answers."""
        replica = Replica("n0", "obj")
        oracle = Replica("n0", "obj")
        now = 0.0
        for record in sorted(records, key=lambda r: (r.writer, r.seq)):
            now += 1.0
            replica.apply_update(record, applied_at=now)
            oracle.apply_update(record, applied_at=now)
            if data.draw(st.integers(min_value=0, max_value=3)) == 0:
                counts = replica.vector.counts()
                frontier = {w: data.draw(st.integers(
                    min_value=0, max_value=counts.count(w))) for w in WRITERS}
                replica.truncate_stable(frontier)
        assert replica.content() == oracle.content()
        assert replica.metadata == oracle.metadata
        assert replica.vector.counts() == oracle.vector.counts()
        assert replica.last_applied_at() == oracle.last_applied_at()
        assert (VersionDigest.from_replica(replica, issued_at=now)
                == VersionDigest.from_replica(oracle, issued_at=now))
        # Anti-entropy: any peer at/above the checkpoint gets equal answers.
        base_counts = {w: b.count for w, b in replica.vector.bases().items()}
        peer = VersionVector({w: max(base_counts.get(w, 0),
                                     replica.vector.count(w) - 1)
                              for w in WRITERS})
        assert ([r.key() for r in replica.missing_from(peer)]
                == [r.key() for r in oracle.missing_from(peer)])

    @settings(max_examples=40, deadline=None)
    @given(replica_histories(), st.data())
    def test_resolution_merge_agrees_with_oracle(self, records, data):
        """Merging a truncated vector with a diverged peer produces the same
        counts/metadata image as merging the untruncated oracle."""
        records = sorted(records, key=lambda r: (r.writer, r.seq))
        vec = ExtendedVersionVector.from_updates(records)
        extra = [rec("D", 1, 99.0, 2.0)]
        peer = ExtendedVersionVector.from_updates(records[: len(records) // 2]
                                                  + extra)
        counts = vec.counts()
        frontier = {w: data.draw(st.integers(
            min_value=0, max_value=min(counts.count(w), peer.count(w))))
            for w in WRITERS}
        cut = vec.truncate_to(frontier)
        merged_cut = cut.merge(peer, consistent_time=100.0)
        merged_full = vec.merge(peer, consistent_time=100.0)
        assert merged_cut.counts() == merged_full.counts()
        assert merged_cut.metadata == pytest.approx(merged_full.metadata)
        assert merged_cut.total_updates() == merged_full.total_updates()


# -------------------------------------------------------- driver truncation hook
class TestDriverTruncationHook:
    def build(self, *, truncate):
        config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                            background_period=2.0)
        overlay = OverlayConfig(temperature=TemperatureConfig(
            half_life=600.0, hot_threshold=0.5, max_top_size=4))
        builder = DeploymentBuilder(num_nodes=4, seed=5,
                                    overlay_config=overlay)
        builder.add_object("obj", config, start_background=True)
        population = ClientPopulation(
            name="c", num_clients=8, popularity=UniformPopularity(1),
            mix=OpMix(0.5), schedule=ConstantRate(20.0))
        kwargs = dict(max_ops=4000)
        if truncate:
            kwargs.update(truncate_every=2.0, truncate_window=4.0)
        builder.add_traffic([population], **kwargs)
        return builder.start_overlay_services().build()

    def test_periodic_truncation_bounds_logs_and_preserves_traffic(self):
        plain = self.build(truncate=False)
        plain.traffic.run()
        truncated = self.build(truncate=True)
        truncated.traffic.run()
        c_plain = plain.traffic.counters()
        c_trunc = truncated.traffic.counters()
        # Same offered load and same applied writes; only the extra
        # truncation-tick events differ.
        for key in ("ops_issued", "reads_issued", "writes_applied"):
            assert c_trunc[key] == c_plain[key]
        assert c_trunc["truncation_ticks"] > 0
        assert c_trunc["entries_folded"] > 0
        assert (truncated.retained_log_entries()
                < plain.retained_log_entries())
        # Replicas remain observably converged with their untruncated twins.
        for node_id in truncated.node_ids:
            a = truncated.stores[node_id].replica("obj")
            b = plain.stores[node_id].replica("obj")
            assert a.vector.counts() == b.vector.counts()
            assert a.metadata == b.metadata
            assert a.content() == b.content()

    def test_frontier_requires_all_participants(self):
        deployment = self.build(truncate=False)
        deployment.run(until=1.0)
        managed = deployment.objects["obj"]
        middleware = next(iter(managed.middlewares.values()))
        # An unknown participant blocks the frontier entirely.
        assert middleware.detection.stability_frontier(
            list(managed.middlewares) + ["ghost"]) is None

    def test_frontier_survives_a_crashed_participant(self):
        # Crash-stop keeps the dead node's replica state, so its last-known
        # counts remain a valid frontier source: truncation keeps working
        # (stalled at the crashed peer's counts) instead of stopping forever.
        deployment = self.build(truncate=False)
        deployment.traffic.run()
        managed = deployment.objects["obj"]
        participants = list(managed.middlewares)
        victim = deployment.node_ids[-1]
        live = next(n for n in participants if n != victim)
        middleware = managed.middlewares[live]
        before = middleware.detection.stability_frontier(participants)
        assert before is not None and before
        deployment.crash_node(victim)
        after = middleware.detection.stability_frontier(participants)
        assert after is not None and after, \
            "crashing a participant must not void the frontier"
        assert deployment.truncate_stable_state(keep_window=0.0) > 0


# --------------------------------------------------------- golden-trace replay
class TestGoldenTraceReplay:
    """Pinned scenarios replay identically with truncation enabled.

    The truncation sweep is invoked *between* simulation chunks (no extra
    engine events), so the event/write streams must match the pinned counts
    exactly even while replicas fold state.  The literals are the
    determinism gate for these shapes: re-pin them only when a change moves
    the event order on purpose, and say so in the PR.
    """

    def run_workload_shape(self, *, truncate):
        # The constant traffic shape: 16 nodes x 8 objects, 64 open-loop
        # clients at 8 ops/s each, Zipf 0.99, 90 % reads, 50,000 ops.
        config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                            background_period=None)
        builder = DeploymentBuilder(num_nodes=16, seed=37)
        for i in range(8):
            builder.add_object(f"obj{i:02d}", config, start_background=False)
        population = ClientPopulation(
            name="shape-constant", num_clients=64,
            popularity=ZipfPopularity(8, 0.99), mix=OpMix(0.9),
            schedule=ConstantRate(8.0))
        builder.add_traffic([population], max_ops=50_000)
        deployment = builder.start_overlay_services().build()
        driver = deployment.traffic
        while not driver.done:
            deployment.run(until=deployment.sim.now + 5.0)
            if truncate:
                deployment.truncate_stable_state(keep_window=10.0)
        return deployment

    def test_workload_shape_replays_with_truncation(self):
        for truncate in (False, True):
            deployment = self.run_workload_shape(truncate=truncate)
            driver = deployment.traffic
            assert driver.ops_issued == 50_000
            assert driver.reads_issued == 45_025
            assert driver.writes_applied == 4_975
            assert deployment.sim.events_processed == 96_153

    def run_multiobject_ablation(self, *, truncate):
        # Mirror fig9_scalability.run_multiobject_point at 8 nodes x 8
        # objects x 300 s, but advance in chunks with a truncation sweep in
        # between.
        num_nodes, num_objects, writers_per_object = 8, 8, 4
        write_period, duration = 0.4, 300.0
        deployment = DeploymentBuilder(num_nodes=num_nodes, seed=11).build()
        config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                            background_period=None)
        node_ids = deployment.node_ids
        for i in range(num_objects):
            object_id = f"obj{i:04d}"
            deployment.register_object(object_id, config, start_background=False)
            for w in range(writers_per_object):
                middleware = deployment.middleware(
                    object_id, node_ids[(i + w) % len(node_ids)])
                timer = PeriodicTimer(
                    deployment.sim,
                    (lambda m=middleware: m.write(metadata_delta=1.0)),
                    period=write_period, label=f"wl:{object_id}")
                offset = 0.05 + write_period * (w / writers_per_object) \
                    + 0.003 * (i % 32)
                deployment.sim.call_at(offset, timer.start)
        now = 0.0
        while now < duration:
            now = min(now + duration / 10.0, duration)
            deployment.run(until=now)
            if truncate:
                deployment.truncate_stable_state(keep_window=30.0)
        writes = sum(deployment.trace.count(f"writes.obj{i:04d}")
                     for i in range(num_objects))
        return deployment.sim.events_processed, writes

    def test_multiobject_ablation_replays_with_truncation(self):
        for truncate in (False, True):
            assert self.run_multiobject_ablation(truncate=truncate) \
                == (95_854, 23_968)

    def test_longrun_shape_replays_with_bounded_state(self):
        # The long-run shape: 16 nodes all in the top layer, 4 objects,
        # background resolution every 2 s, the driver's truncation sweep
        # every 2 s over a 5 s window; 64 clients x 40 ops/s, 75,000 ops.
        config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.0,
                            background_period=2.0, outcome_history=256)
        overlay = OverlayConfig(temperature=TemperatureConfig(
            half_life=600.0, hot_threshold=0.5, max_top_size=16,
            min_top_size=1))
        builder = DeploymentBuilder(num_nodes=16, seed=23,
                                    overlay_config=overlay)
        for i in range(4):
            builder.add_object(f"obj{i}", config, start_background=True)
        population = ClientPopulation(
            name="web", num_clients=64, popularity=ZipfPopularity(4, 0.5),
            mix=OpMix(0.9), schedule=ConstantRate(40.0))
        builder.add_traffic([population], max_ops=75_000, truncate_every=2.0,
                            truncate_window=5.0, truncate_keep_content=False)
        deployment = builder.start_overlay_services().build()
        driver = deployment.traffic
        deployment.run(until=10.0)
        early_ops, early_peak = driver.ops_issued, driver.peak_retained_entries
        driver.run(chunk=1.0)
        assert driver.ops_issued == 75_000
        assert driver.reads_issued == 67_570
        assert driver.writes_applied == 5_271
        assert deployment.sim.events_processed == 156_913
        assert driver.entries_folded == 60_965
        # Bounded state independent of the op count: the peak is reached in
        # the first 10 of the run's 30 simulated seconds and stays under the
        # window bound (write rate x members x retention horizon).
        assert early_ops < 75_000 / 2
        assert driver.peak_retained_entries == early_peak == 26_468
        assert early_peak <= 65_536
