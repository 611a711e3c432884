"""Unit tests for the replicated-store substrate (log, replica, store)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.store.filesystem import ReplicatedStore
from repro.store.replica import Replica
from repro.store.update_log import LogEntry, UpdateLog
from repro.versioning.extended_vector import (ExtendedVersionVector,
                                              TruncatedHistoryError, UpdateRecord)
from repro.versioning.version_vector import VersionVector


def rec(writer, seq, ts, delta=1.0, payload=None):
    return UpdateRecord(writer=writer, seq=seq, timestamp=ts, metadata_delta=delta,
                        payload=payload)


#: non-dyadic, so an accumulation in another order would show
install_deltas = st.sampled_from([0.1, 0.2, 0.3, 0.7, 1e16, -1e16, 1.0])


class TestUpdateLog:
    def test_append_and_contains(self):
        log = UpdateLog()
        assert log.append(rec("A", 1, 1.0), applied_at=1.0)
        assert ("A", 1) in log
        assert len(log) == 1

    def test_duplicate_append_ignored(self):
        log = UpdateLog()
        log.append(rec("A", 1, 1.0), applied_at=1.0)
        assert not log.append(rec("A", 1, 1.0), applied_at=2.0)
        assert len(log) == 1

    def test_extend_counts_new_records(self):
        log = UpdateLog()
        log.append(rec("A", 1, 1.0), applied_at=1.0)
        added = log.extend([rec("A", 1, 1.0), rec("B", 1, 2.0)], applied_at=2.0)
        assert added == 1

    def test_missing_from(self):
        log = UpdateLog()
        log.append(rec("A", 1, 1.0), applied_at=1.0)
        log.append(rec("B", 1, 2.0), applied_at=2.0)
        missing = log.missing_from({("A", 1)})
        assert [r.key() for r in missing] == [("B", 1)]

    def test_invalidate_tombstones_entries(self):
        log = UpdateLog()
        log.append(rec("A", 1, 1.0), applied_at=1.0)
        assert log.invalidate([("A", 1)]) == 1
        assert log.records() == []
        assert len(log.records(include_dead=True)) == 1
        # idempotent
        assert log.invalidate([("A", 1)]) == 0

    def test_live_metadata_excludes_dead_entries(self):
        log = UpdateLog()
        log.append(rec("A", 1, 1.0, delta=2.0), applied_at=1.0)
        log.append(rec("B", 1, 2.0, delta=3.0), applied_at=2.0)
        log.invalidate([("B", 1)])
        assert log.live_metadata() == pytest.approx(2.0)


class EntryList:
    """The log as one list of entries in application order, every answer a
    scan — the layout the columns replaced, kept here as their oracle.

    Float accumulators move as that layout moved them: ``+=`` per appended
    record, ``-=`` per death, and per folded live record ``+=`` into the
    checkpoint and ``-=`` out of the live sum, writers in frontier order.
    """

    def __init__(self):
        self.log = []              # retained LogEntry, application order
        self.writers = {}          # first-append order; gone when its tail folds away
        self.counts = {}           # folded per writer
        self.entries_folded = self.below = 0
        self.live_sum = self.folded_sum = 0.0
        self.content, self.dropped = [], False
        self.through = float("-inf")

    def count(self, writer):
        return self.counts.get(writer, 0) + sum(e.record.writer == writer for e in self.log)

    def extend(self, records, applied_at):
        taken, fresh = {}, []
        for r in records:
            have = taken[r.writer] if r.writer in taken else self.count(r.writer)
            if r.seq != have + 1:
                if 1 <= r.seq <= have:
                    continue
                raise ValueError(f"gap at {r.key()}")
            taken[r.writer] = r.seq
            fresh.append(r)
        for r in fresh:
            self.log.append(LogEntry(r, applied_at))
            self.writers.setdefault(r.writer)
            self.live_sum += r.metadata_delta
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
            elif not entry.invalidated:
                self.live_sum -= entry.record.metadata_delta
                entry.invalidated = True
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
                    self.folded_sum += record.metadata_delta
                    self.live_sum -= record.metadata_delta
                    if keep_content:
                        self.content.append((record.timestamp, record.writer,
                                             record.seq, record.payload))
                if entry.applied_at > self.through:
                    self.through = entry.applied_at
            folded += tail[:n]
            if n:
                self.counts[writer] = self.counts.get(writer, 0) + n
                if n == len(tail):
                    del self.writers[writer]
        self.log = [e for e in self.log if all(e is not f for f in folded)]
        self.entries_folded += len(folded)
        self.dropped |= not keep_content and live_folded > 0
        return len(folded)

    def missing_from(self, known):
        if isinstance(known, VersionVector):
            if any(known.count(w) < base for w, base in self.counts.items()):
                raise TruncatedHistoryError(known)
            return [e.record for w in self.writers for e in self.log
                    if e.record.writer == w and e.live and e.record.seq > known.count(w)]
        if self.entries_folded and any((w, base) not in known
                                       for w, base in self.counts.items()):
            raise TruncatedHistoryError(known)
        return [e.record for e in self.log if e.live and e.record.key() not in known]

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


class TestColumnsAgainstTheEntryList:
    @staticmethod
    def assert_answers_alike(log, model):
        assert log.entries(include_dead=True) == model.log
        assert log.entries() == [e for e in model.log if e.live]
        assert log.record_keys() == {e.record.key() for e in model.log}
        assert len(log) == model.entries_folded + len(model.log)
        assert log.retained_count() == len(model.log)
        for writer in "ABC":
            for seq in range(-1, model.count(writer) + 3):
                assert log.get((writer, seq)) == model.get((writer, seq))
                assert ((writer, seq) in log) == (1 <= seq <= model.count(writer))
        for behind in (0, 1, 3):
            peer = {w: max(0, model.count(w) - behind) for w in "ABC"}
            vector = VersionVector(peer)
            keys = {(w, s) for w, n in peer.items() for s in range(1, n + 1)}
            assert outcome(log.missing_from, vector) == outcome(model.missing_from, vector)
            assert outcome(log.missing_from, keys) == outcome(model.missing_from, keys)
        assert log.last_applied_at() == model.last_applied_at()
        assert outcome(log.live_content) == outcome(model.live_content)
        assert repr(log.live_metadata()) == repr(model.folded_sum + model.live_sum)
        checkpoint = log.checkpoint
        assert checkpoint.counts == model.counts
        assert checkpoint.entries_folded == model.entries_folded
        assert checkpoint.applied_through == model.through
        assert log.invalidated_below_checkpoint == model.below
        # a dead entry is held only while retained: folding lets it go
        assert len(log._dead) == sum(not e.live for e in model.log)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.booleans())
    def test_any_interleaving_answers_like_the_entry_list(self, data, monotone):
        """Appends and batches (duplicates and gaps among them), invalidation
        and truncation, with stamps in time order or not."""
        log, model = UpdateLog(), EntryList()
        clock = 0.0
        for _ in range(data.draw(st.integers(1, 25))):
            kind = data.draw(st.sampled_from(
                ["append", "extend", "extend", "invalidate", "truncate"]))
            clock = (clock + data.draw(st.sampled_from([0.0, 0.5, 1.0])) if monotone
                     else data.draw(st.sampled_from([0.0, 1.0, 2.5, 4.0])))
            if kind in ("append", "extend"):
                taken, batch = {}, []
                for _ in range(1 if kind == "append" else data.draw(st.integers(0, 6))):
                    writer = data.draw(st.sampled_from("ABC"))
                    upcoming = taken.get(writer, model.count(writer)) + 1
                    seq = upcoming + data.draw(st.sampled_from([0, 0, 0, 0, -1, -3, 1]))
                    if seq == upcoming:
                        taken[writer] = seq
                    batch.append(record_for(writer, seq))
                if kind == "append":
                    args = (batch[0], clock)
                    assert outcome(log.append, *args) == outcome(model.append, *args)
                else:
                    before = (log.entries(include_dead=True), repr(log.live_metadata()))
                    got = outcome(log.extend, batch, clock)
                    assert got == outcome(model.extend, batch, clock)
                    if got is ValueError:   # all or nothing
                        assert (log.entries(include_dead=True),
                                repr(log.live_metadata())) == before
            elif kind == "invalidate":
                keys = [(data.draw(st.sampled_from("ABC")), data.draw(st.integers(0, 12)))
                        for _ in range(data.draw(st.integers(1, 3)))]
                assert log.invalidate(keys) == model.invalidate(keys)
            else:
                frontier = {w: data.draw(st.integers(0, model.count(w)))
                            for w in data.draw(st.permutations("ABC"))}
                options = dict(keep_after=data.draw(st.one_of(st.none(), st.just(clock - 1.0))),
                               keep_content=data.draw(st.booleans()))
                assert log.truncate(frontier, **options) == model.truncate(frontier, **options)
            self.assert_answers_alike(log, model)

    def test_a_gapped_batch_leaves_the_log_as_it_was(self):
        log = UpdateLog()
        log.extend([rec("A", 1, 1.0), rec("A", 2, 2.0)], applied_at=1.0)
        log.invalidate([("A", 2)])
        before = (log.entries(include_dead=True), log.record_keys(), len(log),
                  repr(log.live_metadata()), log.last_applied_at())
        with pytest.raises(ValueError, match="out-of-order update from 'A'"):
            log.extend([rec("B", 1, 3.0), rec("A", 3, 3.0), rec("A", 5, 5.0)],
                       applied_at=4.0)
        assert (log.entries(include_dead=True), log.record_keys(), len(log),
                repr(log.live_metadata()), log.last_applied_at()) == before
        assert ("B", 1) not in log and ("A", 3) not in log
        assert log.extend([rec("B", 1, 3.0), rec("A", 3, 3.0)], applied_at=4.0) == 2


class TestLastAppliedAt:
    """``UpdateLog.last_applied_at`` ≡ the scan over ``entries()`` that
    ``IdeaMiddleware.read``'s quiet path used to take."""

    @staticmethod
    def scan(log):
        last = max((e.applied_at for e in log.entries()), default=0.0)
        return max(last, log.checkpoint.applied_through)

    def test_empty_log(self):
        assert UpdateLog().last_applied_at() == 0.0

    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(st.tuples(
        st.sampled_from(["append", "append", "extend", "truncate",
                         "invalidate"]),
        st.sampled_from(["A", "B", "C"]),
        st.integers(0, 40).map(lambda q: q / 4.0)), max_size=40),
        monotone=st.booleans())
    def test_equals_the_scan(self, steps, monotone):
        """Random appends — in time order or not — bulk extends, truncation
        (the checkpoint floor applies) and invalidation."""
        log = UpdateLog()
        counts = {}
        clock = 0.0
        for kind, writer, when in steps:
            clock = clock + when if monotone else when
            if kind in ("append", "extend"):
                records = []
                for _ in range(1 if kind == "append" else 3):
                    counts[writer] = counts.get(writer, 0) + 1
                    records.append(rec(writer, counts[writer], clock))
                if kind == "append":
                    log.append(records[0], applied_at=clock)
                else:
                    log.extend(records, applied_at=clock)
            elif kind == "truncate":
                log.truncate({writer: counts.get(writer, 0) - 1},
                             keep_after=clock if monotone else None)
            else:
                log.invalidate([(writer, counts.get(writer, 0))])
            assert log.last_applied_at() == self.scan(log)

    def test_truncation_floors_the_answer(self):
        log = UpdateLog()
        log.append(rec("A", 1, 1.0), applied_at=1.0)
        log.append(rec("A", 2, 2.0), applied_at=7.5)
        assert log.last_applied_at() == 7.5
        assert log.truncate({"A": 2}) == 2
        assert log.retained_count() == 0
        assert log.last_applied_at() == 7.5

    def test_an_invalidated_tail_does_not_count(self):
        log = UpdateLog()
        log.append(rec("A", 1, 1.0), applied_at=1.0)
        log.append(rec("A", 2, 2.0), applied_at=3.0)
        log.invalidate([("A", 2)])
        assert log.last_applied_at() == 1.0 == self.scan(log)

    def test_quiet_read_does_not_copy_the_log(self, monkeypatch):
        from repro.core.config import IdeaConfig
        from repro.core.deployment import DeploymentBuilder

        deployment = DeploymentBuilder(num_nodes=4, seed=3).build()
        managed = deployment.register_object(
            "obj", IdeaConfig(background_period=None))
        middleware = managed.middlewares[deployment.node_ids[0]]
        middleware.write(metadata_delta=1.0)
        deployment.run(until=10.0)
        monkeypatch.setattr(UpdateLog, "entries", None)  # copying would raise
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

    def test_vector_and_log_stay_in_step(self):
        replica = Replica("n0", "obj")
        replica.local_write("n0", 1.0, metadata_delta=1.0)
        replica.apply_update(rec("n1", 1, 2.0, delta=4.0), applied_at=2.0)
        assert replica.vector.total_updates() == len(replica.log)
        assert replica.metadata == pytest.approx(sum(
            r.metadata_delta for r in replica.log.records()))

    def test_install_merged_pulls_missing_updates(self):
        a = Replica("n0", "obj")
        b = Replica("n1", "obj")
        a.local_write("n0", 1.0, payload="from-a")
        b.local_write("n1", 1.0, payload="from-b")
        merged = a.vector.merge(b.vector, consistent_time=2.0)
        pulled = a.install_merged(merged, now=2.0)
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
            # a log whose live view is dirty must come out the same too
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
        assert ([(e.record, e.applied_at, e.live) for e in bulk.log.entries(include_dead=True)]
                == [(e.record, e.applied_at, e.live) for e in twin.log.entries(include_dead=True)])
        assert bulk.log.entries() == twin.log.entries()
        assert repr(bulk.log.live_metadata()) == repr(twin.log.live_metadata())
        assert bulk.log.missing_from(set()) == twin.log.missing_from(set())
        assert bulk.vector.total_updates() == len(bulk.log)

    def test_a_gapped_install_changes_nothing(self):
        replica = Replica("n0", "obj")
        for seq in range(1, 5):
            replica.apply_update(rec("A", seq, float(seq)), applied_at=1.0)
        vector, revision = replica.vector, replica.revision
        entries = replica.log.entries()
        batch = [rec("B", 1, 9.0), rec("A", 5, 5.0), rec("A", 7, 7.0)]
        with pytest.raises(ValueError, match="out-of-order update from 'A'"):
            replica.apply_updates(batch, applied_at=2.0)
        assert replica.vector is vector
        assert replica.revision == revision
        assert replica.log.entries() == entries
        assert ("A", 5) not in replica.log and ("B", 1) not in replica.log

    def test_a_refused_image_leaves_the_replica_as_it_was(self):
        replica = Replica("n0", "obj")
        replica.apply_update(rec("A", 1, 1.0), applied_at=1.0)
        vector, revision = replica.vector, replica.revision
        # an image holding A from seq 3 on cannot extend a replica at A:1
        image = ExtendedVersionVector({"A": (rec("A", 3, 3.0), rec("A", 4, 4.0)),
                                       "B": (rec("B", 1, 2.0),)})
        with pytest.raises(ValueError):
            replica.install_merged(image, now=2.0)
        assert replica.vector is vector
        assert replica.revision == revision
        assert len(replica.log) == 1

    def test_mark_consistent_updates_time(self):
        replica = Replica("n0", "obj")
        replica.local_write("n0", 1.0)
        replica.mark_consistent(9.0)
        assert replica.vector.last_consistent_time == 9.0

    def test_snapshot_is_frozen_view(self):
        replica = Replica("n0", "obj")
        replica.local_write("n0", 1.0)
        snap = replica.snapshot(now=1.0)
        replica.local_write("n0", 2.0)
        assert snap.vector.count("n0") == 1
        assert snap.counts.count("n0") == 1

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
