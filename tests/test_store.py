"""Unit tests for the replicated-store substrate (replica, store)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.store.filesystem import ReplicatedStore
from repro.store.replica import Replica
from repro.versioning.extended_vector import (ExtendedVersionVector,
                                              TruncatedHistoryError, UpdateRecord,
                                              WriterBase)
from repro.versioning.version_vector import VersionVector


def rec(writer, seq, ts, delta=1.0, payload=None):
    return UpdateRecord(writer=writer, seq=seq, timestamp=ts, metadata_delta=delta,
                        payload=payload)


#: non-dyadic, so an accumulation in another order would show
install_deltas = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 1.0])


class TestReplicaRecords:
    def test_apply_update_retains_the_record(self):
        replica = Replica("n0", "obj")
        assert replica.apply_update(rec("A", 1, 1.0), applied_at=1.0)
        assert replica.missing_from(VersionVector()) == [rec("A", 1, 1.0)]
        assert replica.retained_log_entries() == 1

    def test_duplicate_apply_ignored(self):
        replica = Replica("n0", "obj")
        replica.apply_update(rec("A", 1, 1.0), applied_at=1.0)
        assert not replica.apply_update(rec("A", 1, 1.0), applied_at=2.0)
        assert replica.retained_log_entries() == 1
        assert replica.last_applied_at() == 1.0

    def test_apply_updates_counts_new_records(self):
        replica = Replica("n0", "obj")
        replica.apply_update(rec("A", 1, 1.0), applied_at=1.0)
        added = replica.apply_updates([rec("A", 1, 1.0), rec("B", 1, 2.0)],
                                      applied_at=2.0)
        assert added == 1

    def test_missing_from(self):
        replica = Replica("n0", "obj")
        replica.apply_update(rec("A", 1, 1.0), applied_at=1.0)
        replica.apply_update(rec("B", 1, 2.0), applied_at=2.0)
        missing = replica.missing_from(VersionVector({"A": 1}))
        assert [r.key() for r in missing] == [("B", 1)]

    def test_invalidate_tombstones_records(self):
        replica = Replica("n0", "obj")
        replica.apply_update(rec("A", 1, 1.0, payload="a"), applied_at=1.0)
        assert replica.invalidate_updates([("A", 1)]) == 1
        assert replica.content() == []
        assert replica.missing_from(VersionVector()) == []
        assert replica.retained_log_entries() == 1
        # idempotent
        assert replica.invalidate_updates([("A", 1)]) == 0


class Entry:
    """One applied record, its applied-at stamp and its tombstone flag."""

    def __init__(self, record, applied_at):
        self.record, self.applied_at, self.live = record, applied_at, True


class EntryList:
    """The replica's records as one list of entries in application order,
    every answer a scan — the log layout the replica's vector-held records
    replaced, kept here as their oracle."""

    def __init__(self):
        self.log = []              # retained Entry, application order
        self.counts = {}           # folded per writer
        self.entries_folded = self.below = 0
        self.content, self.dropped = [], False
        self.through = float("-inf")

    def count(self, writer):
        return self.counts.get(writer, 0) + sum(e.record.writer == writer for e in self.log)

    def extend(self, records, applied_at):
        """``Replica.apply_updates``: per writer in seq order, all or nothing."""
        taken, fresh = {}, []
        for r in sorted(records, key=lambda r: (r.writer, r.seq)):
            have = taken[r.writer] if r.writer in taken else self.count(r.writer)
            if r.seq != have + 1:
                if 1 <= r.seq <= have:
                    continue
                raise ValueError(f"gap at {r.key()}")
            taken[r.writer] = r.seq
            fresh.append(r)
        self.log += [Entry(r, applied_at) for r in fresh]
        return len(fresh)

    def append(self, record, applied_at):
        return self.extend([record], applied_at) == 1

    def get(self, key):
        return next((e for e in self.log if e.record.key() == key), None)

    def invalidate(self, keys):
        count = 0
        for writer, seq in keys:
            entry = self.get((writer, seq))
            if entry is None:
                self.below += 1 <= seq <= self.counts.get(writer, 0)
            elif entry.live:
                entry.live = False
                count += 1
        return count

    def truncate(self, frontier, *, keep_after=None, keep_content=True):
        folded, live_folded = [], 0
        for writer, target in frontier.items():
            tail = [e for e in self.log if e.record.writer == writer]
            n = 0
            while (n < len(tail) and tail[n].record.seq <= target
                   and (keep_after is None or tail[n].applied_at <= keep_after)):
                n += 1
            for entry in tail[:n]:
                record = entry.record
                if entry.live:
                    live_folded += 1
                    if keep_content:
                        self.content.append((record.timestamp, record.writer,
                                             record.seq, record.payload))
                if entry.applied_at > self.through:
                    self.through = entry.applied_at
            folded += tail[:n]
            if n:
                self.counts[writer] = self.counts.get(writer, 0) + n
        self.log = [e for e in self.log if all(e is not f for f in folded)]
        self.entries_folded += len(folded)
        self.dropped |= not keep_content and live_folded > 0
        return len(folded)

    def missing_from(self, known):
        if any(known.count(w) < base for w, base in self.counts.items()):
            raise TruncatedHistoryError(known)
        return sorted((e.record for e in self.log
                       if e.live and e.record.seq > known.count(e.record.writer)),
                      key=lambda r: (r.writer, r.seq))

    def last_applied_at(self):
        last = max((e.applied_at for e in self.log if e.live), default=0.0)
        return max(last, self.through)

    def live_content(self):
        if self.dropped:
            raise TruncatedHistoryError("dropped")
        return [item[3] for item in sorted(self.content + [
            (e.record.timestamp, e.record.writer, e.record.seq, e.record.payload)
            for e in self.log if e.live])]


def outcome(call, *args, **kwargs):
    """What a call returned, or which refusal it raised."""
    try:
        return call(*args, **kwargs)
    except (ValueError, TruncatedHistoryError) as refused:
        return type(refused)


#: one history per writer; timestamps tie across writers, deltas cancel
HISTORIES = {writer: [rec(writer, seq, float(seq % 4), delta, f"{writer}#{seq}")
                      for seq, delta in enumerate([0.1, 0.7, -0.3, 1e16, 0.2, -1e16,
                                                   0.05, 3.0] * 20, start=1)]
             for writer in "ABC"}


def record_for(writer, seq):
    return HISTORIES[writer][seq - 1] if seq >= 1 else rec(writer, seq, 0.0)


def assert_answers_alike(replica, model):
    """Every query on the records: content, last apply, anti-entropy
    answers, what is retained — and the stamps and tombstones held beside
    the vector, which must track the vector's tails exactly."""
    assert replica.retained_log_entries() == len(model.log)
    for behind in (0, 1, 3):
        peer = VersionVector({w: max(0, model.count(w) - behind) for w in "ABC"})
        assert outcome(replica.missing_from, peer) == outcome(model.missing_from, peer)
    assert replica.last_applied_at() == model.last_applied_at()
    assert outcome(replica.content) == outcome(model.live_content)
    vector = replica.vector
    assert {w: vector.count(w) for w in "ABC"} == {w: model.count(w) for w in "ABC"}
    assert {w: b.count for w, b in vector.bases().items()} == model.counts
    assert replica.truncation_stats.entries_folded == model.entries_folded
    assert replica.truncation_stats.invalidate_below_checkpoint == model.below
    assert replica.applied_through == model.through
    assert replica._stamps == {
        w: [e.applied_at for e in model.log if e.record.writer == w]
        for w in "ABC" if model.count(w) > model.counts.get(w, 0)}
    # a tombstone is held only while its record is retained: folding lets it go
    assert replica._dead == {e.record.key() for e in model.log if not e.live}


class TestReplicaAgainstTheEntryList:
    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.booleans())
    def test_any_interleaving_answers_like_the_entry_list(self, data, monotone):
        """Local writes, remote applies and batches (duplicates and gaps
        among them), installs, invalidation and truncation, with stamps in
        time order or not."""
        replica, model = Replica("n0", "obj"), EntryList()
        clock = 0.0
        for _ in range(data.draw(st.integers(1, 25))):
            kind = data.draw(st.sampled_from(
                ["write", "apply", "batch", "batch", "install", "invalidate",
                 "truncate"]))
            clock = (clock + data.draw(st.sampled_from([0.0, 0.5, 1.0])) if monotone
                     else data.draw(st.sampled_from([0.0, 1.0, 2.5, 4.0])))
            if kind == "write":
                writer = data.draw(st.sampled_from("ABC"))
                r = record_for(writer, model.count(writer) + 1)
                assert replica.local_write(writer, r.timestamp,
                                           metadata_delta=r.metadata_delta,
                                           payload=r.payload, applied_at=clock) == r
                assert model.append(r, clock)
            elif kind in ("apply", "batch"):
                taken, batch = {}, []
                for _ in range(1 if kind == "apply" else data.draw(st.integers(0, 6))):
                    writer = data.draw(st.sampled_from("ABC"))
                    upcoming = taken.get(writer, model.count(writer)) + 1
                    seq = upcoming + data.draw(st.sampled_from([0, 0, 0, 0, -1, -3, 1]))
                    if seq == upcoming:
                        taken[writer] = seq
                    batch.append(record_for(writer, seq))
                if kind == "apply":
                    args = (batch[0], clock)
                    assert outcome(replica.apply_update, *args) == outcome(model.append, *args)
                else:
                    before = (replica.vector, dict(replica._stamps), replica.revision)
                    got = outcome(replica.apply_updates, batch, clock)
                    assert got == outcome(model.extend, batch, clock)
                    if got is ValueError:   # all or nothing
                        assert (replica.vector, dict(replica._stamps),
                                replica.revision) == before
            elif kind == "install":
                image = ExtendedVersionVector({
                    w: HISTORIES[w][:data.draw(st.integers(0, model.count(w) + 3))]
                    for w in "ABC"})
                pulled = replica.install_merged(image.delta_above({}), now=clock)
                assert pulled == model.extend(
                    [r for w in "ABC" for r in image.updates_from(w)], clock)
            elif kind == "invalidate":
                keys = [(data.draw(st.sampled_from("ABC")), data.draw(st.integers(0, 12)))
                        for _ in range(data.draw(st.integers(1, 3)))]
                assert replica.invalidate_updates(keys) == model.invalidate(keys)
            else:
                frontier = {w: data.draw(st.integers(0, model.count(w)))
                            for w in data.draw(st.permutations("ABC"))}
                options = dict(keep_after=data.draw(st.one_of(st.none(), st.just(clock - 1.0))),
                               keep_content=data.draw(st.booleans()))
                assert (replica.truncate_stable(frontier, **options)
                        == model.truncate(frontier, **options))
            assert_answers_alike(replica, model)

    def test_a_gapped_batch_leaves_the_replica_as_it_was(self):
        replica = Replica("n0", "obj")
        replica.apply_updates([rec("A", 1, 1.0), rec("A", 2, 2.0)], applied_at=1.0)
        replica.invalidate_updates([("A", 2)])
        state = lambda: (replica.vector, replica.retained_log_entries(),
                         replica.content(), replica.last_applied_at(),
                         replica.missing_from(VersionVector()))
        before = state()
        with pytest.raises(ValueError, match="out-of-order update from 'A'"):
            replica.apply_updates([rec("B", 1, 3.0), rec("A", 3, 3.0), rec("A", 5, 5.0)],
                                  applied_at=4.0)
        assert state() == before
        assert replica.vector.count("B") == 0 and replica.vector.count("A") == 2
        assert replica.apply_updates([rec("B", 1, 3.0), rec("A", 3, 3.0)],
                                     applied_at=4.0) == 2


class TestLastAppliedAt:
    """``Replica.last_applied_at`` ≡ the scan over the live entries that
    ``IdeaMiddleware.read``'s quiet path used to take."""

    def test_empty_replica(self):
        assert Replica("n0", "obj").last_applied_at() == 0.0

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(
        st.sampled_from(["apply", "apply", "batch", "truncate",
                         "invalidate"]),
        st.sampled_from(["A", "B", "C"]),
        st.integers(0, 40).map(lambda q: q / 4.0)), max_size=40),
        monotone=st.booleans())
    def test_equals_the_scan(self, steps, monotone):
        """Random applies — in time order or not — batches, truncation
        (the fold horizon applies) and invalidation."""
        replica, model = Replica("n0", "obj"), EntryList()
        counts = {}
        clock = 0.0
        for kind, writer, when in steps:
            clock = clock + when if monotone else when
            if kind in ("apply", "batch"):
                records = []
                for _ in range(1 if kind == "apply" else 3):
                    counts[writer] = counts.get(writer, 0) + 1
                    records.append(rec(writer, counts[writer], clock))
                if kind == "apply":
                    replica.apply_update(records[0], applied_at=clock)
                else:
                    replica.apply_updates(records, applied_at=clock)
                model.extend(records, clock)
            elif kind == "truncate":
                frontier = {writer: counts.get(writer, 0) - 1}
                keep_after = clock if monotone else None
                replica.truncate_stable(frontier, keep_after=keep_after)
                model.truncate(frontier, keep_after=keep_after)
            else:
                keys = [(writer, counts.get(writer, 0))]
                replica.invalidate_updates(keys)
                model.invalidate(keys)
            assert replica.last_applied_at() == model.last_applied_at()

    def test_truncation_floors_the_answer(self):
        replica = Replica("n0", "obj")
        replica.apply_update(rec("A", 1, 1.0), applied_at=1.0)
        replica.apply_update(rec("A", 2, 2.0), applied_at=7.5)
        assert replica.last_applied_at() == 7.5
        assert replica.truncate_stable({"A": 2}) == 2
        assert replica.retained_log_entries() == 0
        assert replica.last_applied_at() == 7.5

    def test_an_invalidated_tail_does_not_count(self):
        replica = Replica("n0", "obj")
        replica.apply_update(rec("A", 1, 1.0), applied_at=1.0)
        replica.apply_update(rec("A", 2, 2.0), applied_at=3.0)
        replica.invalidate_updates([("A", 2)])
        assert replica.last_applied_at() == 1.0

    def test_quiet_read_does_not_copy_the_records(self, monkeypatch):
        from repro.core.config import IdeaConfig
        from repro.core.deployment import DeploymentBuilder

        deployment = DeploymentBuilder(num_nodes=4, seed=3).build()
        managed = deployment.register_object(
            "obj", IdeaConfig(background_period=None))
        middleware = managed.middlewares[deployment.node_ids[0]]
        middleware.write(metadata_delta=1.0)
        deployment.run(until=10.0)
        # copying would raise
        monkeypatch.setattr(ExtendedVersionVector, "all_updates", None)
        monkeypatch.setattr(Replica, "content", None)
        runs = middleware.detection.detections_run
        middleware.read(new_snapshot=False, quiet_threshold=60.0,
                        include_content=False)
        assert middleware.detection.detections_run == runs      # not quiet yet
        middleware.read(new_snapshot=False, quiet_threshold=5.0,
                        include_content=False)
        assert middleware.detection.detections_run == runs + 1  # quiet: detect


class TestReplica:
    def test_local_write_applies_and_logs(self):
        replica = Replica("n0", "obj")
        record = replica.local_write("n0", 1.0, metadata_delta=2.0, payload="x")
        assert record is not None
        assert replica.vector.count("n0") == 1
        assert replica.metadata == pytest.approx(2.0)
        assert replica.content() == ["x"]

    def test_next_seq_increases(self):
        replica = Replica("n0", "obj")
        assert replica.next_seq("n0") == 1
        replica.local_write("n0", 1.0)
        assert replica.next_seq("n0") == 2

    def test_blocked_writes_return_none_and_count(self):
        replica = Replica("n0", "obj")
        replica.block_writes()
        assert replica.local_write("n0", 1.0) is None
        assert replica.blocked_writes == 1
        replica.unblock_writes()
        assert replica.local_write("n0", 2.0) is not None

    def test_apply_remote_update_idempotent(self):
        replica = Replica("n0", "obj")
        record = rec("n1", 1, 1.0)
        assert replica.apply_update(record, applied_at=1.0)
        assert not replica.apply_update(record, applied_at=2.0)

    def test_every_record_is_held_once_in_the_vector(self):
        replica = Replica("n0", "obj")
        replica.local_write("n0", 1.0, metadata_delta=1.0)
        replica.apply_update(rec("n1", 1, 2.0, delta=4.0), applied_at=2.0)
        assert replica.vector.total_updates() == replica.retained_log_entries() == 2
        assert replica.metadata == pytest.approx(sum(
            r.metadata_delta for r in replica.missing_from(VersionVector())))

    def test_install_merged_pulls_missing_updates(self):
        a = Replica("n0", "obj")
        b = Replica("n1", "obj")
        a.local_write("n0", 1.0, payload="from-a")
        b.local_write("n1", 1.0, payload="from-b")
        merged = a.vector.merge(b.vector, consistent_time=2.0)
        pulled = a.install_merged(merged.delta_above(a.vector.counts().as_dict()),
                                  now=2.0)
        assert pulled == 1
        assert a.vector.count("n1") == 1
        assert a.vector.last_consistent_time == 2.0

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_apply_updates_is_a_fold_of_apply_update(self, data):
        """The bulk install against the per-record loop it replaced."""
        histories = {writer: [rec(writer, seq, float(seq), data.draw(install_deltas))
                              for seq in range(1, 7)] for writer in "ABCD"}
        held = {writer: data.draw(st.integers(0, 4)) for writer in histories}
        bulk, twin = Replica("n0", "obj"), Replica("n0", "obj")
        for replica in (bulk, twin):
            for writer, records in histories.items():
                for record in records[:held[writer]]:
                    replica.apply_update(record, applied_at=1.0)
            # a replica holding a tombstone must come out the same too
            replica.invalidate_updates([("A", 1)])
        # per writer: some records already held (duplicates), the next ones
        # new, some sent twice; the whole batch in arbitrary order
        batch = []
        for writer, records in histories.items():
            first = data.draw(st.integers(0, held[writer]))
            batch += records[first:data.draw(st.integers(first, 6))]
        batch += data.draw(st.lists(st.sampled_from(batch), max_size=4)) if batch else []
        batch = data.draw(st.permutations(batch))
        before = bulk.revision

        returned = bulk.apply_updates(batch, applied_at=2.0)

        folded = sum(twin.apply_update(record, applied_at=2.0)
                     for record in sorted(batch, key=lambda r: (r.writer, r.seq)))
        assert returned == folded
        assert bulk.revision - before == returned == twin.revision - before
        assert bulk.vector == twin.vector
        assert repr(bulk.metadata) == repr(twin.metadata)
        assert list(bulk.vector.counts().as_dict()) == list(twin.vector.counts().as_dict())
        assert bulk._stamps == twin._stamps and bulk._dead == twin._dead
        assert bulk.content() == twin.content()
        assert bulk.last_applied_at() == twin.last_applied_at()
        assert (bulk.missing_from(VersionVector())
                == twin.missing_from(VersionVector()))
        assert bulk.vector.total_updates() == bulk.retained_log_entries()

    def test_a_gapped_install_changes_nothing(self):
        replica = Replica("n0", "obj")
        for seq in range(1, 5):
            replica.apply_update(rec("A", seq, float(seq)), applied_at=1.0)
        vector, revision = replica.vector, replica.revision
        stamps = {w: list(s) for w, s in replica._stamps.items()}
        batch = [rec("B", 1, 9.0), rec("A", 5, 5.0), rec("A", 7, 7.0)]
        with pytest.raises(ValueError, match="out-of-order update from 'A'"):
            replica.apply_updates(batch, applied_at=2.0)
        assert replica.vector is vector
        assert replica.revision == revision
        assert replica._stamps == stamps
        assert replica.last_applied_at() == 1.0

    def test_a_refused_image_leaves_the_replica_as_it_was(self):
        replica = Replica("n0", "obj")
        replica.apply_update(rec("A", 1, 1.0), applied_at=1.0)
        vector, revision = replica.vector, replica.revision
        # an image holding A from seq 3 on — seqs 1..2 folded into its
        # checkpoint — cannot extend a replica at A:1
        image = ExtendedVersionVector({"A": (rec("A", 3, 3.0), rec("A", 4, 4.0)),
                                       "B": (rec("B", 1, 2.0),)},
                                      base={"A": WriterBase(2, 2.0, 2.0)})
        with pytest.raises(TruncatedHistoryError):
            replica.install_merged(image.delta_above({}), now=2.0)
        assert replica.truncation_stats.installs_behind_checkpoint == 1
        assert replica.vector is vector
        assert replica.revision == revision
        assert replica.retained_log_entries() == 1

    def test_mark_consistent_updates_time(self):
        replica = Replica("n0", "obj")
        replica.local_write("n0", 1.0)
        replica.mark_consistent(9.0)
        assert replica.vector.last_consistent_time == 9.0

    def test_snapshot_is_frozen_view(self):
        # a vector read off the replica is a value: later writes leave it be
        replica = Replica("n0", "obj")
        replica.local_write("n0", 1.0)
        snap = replica.vector
        replica.local_write("n0", 2.0)
        assert snap.count("n0") == 1
        assert snap.counts().count("n0") == 1

    def test_invalidate_updates_removes_content(self):
        replica = Replica("n0", "obj")
        replica.local_write("n0", 1.0, payload="keep")
        replica.apply_update(rec("n1", 1, 2.0, payload="drop"), applied_at=2.0)
        replica.invalidate_updates([("n1", 1)])
        assert replica.content() == ["keep"]


class TestReplicatedStore:
    def test_create_is_idempotent(self):
        store = ReplicatedStore("n0")
        a = store.create("obj")
        b = store.create("obj")
        assert a is b

    def test_missing_replica_raises(self):
        store = ReplicatedStore("n0")
        with pytest.raises(KeyError):
            store.replica("nope")

    def test_write_and_read(self):
        store = ReplicatedStore("n0")
        store.create("obj")
        store.write("obj", "n0", 1.0, payload="hello", metadata_delta=1.0)
        assert store.read("obj") == ["hello"]
        assert store.metadata("obj") == pytest.approx(1.0)

    def test_object_ids_sorted(self):
        store = ReplicatedStore("n0")
        store.create("b")
        store.create("a")
        assert store.object_ids() == ["a", "b"]

    def test_has_replica(self):
        store = ReplicatedStore("n0")
        assert not store.has_replica("obj")
        store.create("obj")
        assert store.has_replica("obj")
