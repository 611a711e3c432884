"""Unit tests for extended version vectors, including the paper's Figure 4."""

from __future__ import annotations

import operator
import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.detection import VersionDigest, build_reference
from repro.live.wire import roundtrip
from repro.versioning.extended_vector import (ErrorTriple, ExtendedVersionVector, History,
                                              TruncatedHistoryError, UpdateRecord,
                                              WriterBase)

SRC = Path(__file__).resolve().parent.parent / "src"


def rec(writer: str, seq: int, ts: float, delta: float = 1.0, payload=None) -> UpdateRecord:
    return UpdateRecord(writer=writer, seq=seq, timestamp=ts, metadata_delta=delta,
                        payload=payload)


def on_the_wire(vector: ExtendedVersionVector) -> ExtendedVersionVector:
    """``vector`` through ``live.wire`` as its delta above nothing."""
    return roundtrip(vector.delta_above({})).rebuild(ExtendedVersionVector())


def triple_against(vector: ExtendedVersionVector,
                   reference: ExtendedVersionVector) -> ErrorTriple:
    """The one error-triple formula: ``vector``'s digest against the
    reference state rebuilt from ``reference``'s digest."""
    return build_reference(
        [VersionDigest.from_vector("o", "ref", reference, 0.0)]).triple_for(
            VersionDigest.from_vector("o", "n", vector, 0.0))


class TestErrorTriple:
    def test_default_is_zero(self):
        triple = ErrorTriple()
        assert (triple.numerical, triple.order, triple.staleness) == (0.0, 0.0, 0.0)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            ErrorTriple(numerical=-1.0)

    def test_a_replica_has_no_numerical_error_against_itself(self):
        # applied in this order the running sum and the per-writer sum
        # round differently (8.9e-16 apart); the digest carries the latter
        vector = ExtendedVersionVector.from_updates(
            [rec("A", 1, 1.0, delta=1.0), rec("B", 1, 2.0, delta=3.593243100324968),
             rec("B", 2, 3.0, delta=1e-05)])
        assert vector.metadata != 1.0 + (3.593243100324968 + 1e-05)
        assert triple_against(vector, vector).numerical == 0.0


class TestConstructorInvariant:
    """Per writer the records run ``base + 1 .. count``, and a checkpoint
    folds at least one update — with or without a checkpoint."""

    #: ``({writer: seqs}, {writer: checkpoint count})`` no vector may hold
    REFUSED = {
        "gap": ({"A": [1, 3]}, {}),
        "duplicate": ({"A": [1, 1, 2]}, {}),
        "not-from-one": ({"A": [2, 3]}, {}),
        "second-writer-gap": ({"A": [1], "B": [1, 2, 4]}, {}),
        "gap-above-a-checkpoint": ({"A": [3, 5]}, {"A": 2}),
        "duplicate-above-a-checkpoint": ({"A": [3, 3, 4]}, {"A": 2}),
        "tail-skips-past-its-checkpoint": ({"A": [4, 5]}, {"A": 2}),
        "tail-reaches-into-its-checkpoint": ({"A": [2, 3]}, {"A": 2}),
        "checkpoint-of-nothing": ({"A": [1]}, {"A": 0}),
        "checkpoint-below-zero": ({}, {"A": -2}),
    }

    @staticmethod
    def build(seqs, counts):
        return ExtendedVersionVector(
            {w: [rec(w, seq, float(seq)) for seq in held]
             for w, held in seqs.items()},
            base={w: WriterBase(count, float(count), 0.5)
                  for w, count in counts.items()})

    @pytest.mark.parametrize("seqs,counts", REFUSED.values(), ids=list(REFUSED))
    def test_a_shape_outside_the_invariant_is_refused(self, seqs, counts):
        with pytest.raises(ValueError):
            self.build(seqs, counts)

    def test_contiguous_records_in_any_order_are_admitted(self):
        vector = self.build({"A": [2, 1], "B": [5, 4]}, {"B": 3, "C": 1})
        assert vector.counts().as_dict() == {"A": 2, "B": 5, "C": 1}
        assert [r.seq for r in vector.updates_from("A")] == [1, 2]
        assert vector.bases() == {"B": WriterBase(3, 3.0, 0.5),
                                  "C": WriterBase(1, 1.0, 0.5)}

    @pytest.mark.parametrize("seqs,counts", REFUSED.values(), ids=list(REFUSED))
    def test_unpickling_a_shape_outside_the_invariant_is_refused(self, seqs,
                                                                 counts):
        """``__reduce__`` goes through the checked constructor, so a vector
        built past it cannot cross a process boundary either."""
        forged = ExtendedVersionVector._from_trusted(
            {w: History([rec(w, seq, float(seq)) for seq in held], len(held))
             for w, held in seqs.items() if held},
            1.0, 0.0, {w: WriterBase(count, float(count), 0.5)
                       for w, count in counts.items()})
        frozen = pickle.dumps(forged)
        with pytest.raises(ValueError):
            pickle.loads(frozen)

    #: ``({writer: seqs}, {writer: checkpoint count}, {writer: count})``
    #: the invariant admits
    ADMITTED = {
        "empty": ({}, {}, {}),
        "one-record": ({"A": [1]}, {}, {"A": 1}),
        "records-from-one": ({"A": [1, 2, 3]}, {}, {"A": 3}),
        "checkpoint-only": ({}, {"A": 2}, {"A": 2}),
        "checkpoint-then-tail": ({"A": [3, 4]}, {"A": 2}, {"A": 4}),
        "two-writers-one-checkpointed": ({"A": [1], "B": [4]}, {"B": 3},
                                         {"A": 1, "B": 4}),
        "unordered-records": ({"A": [3, 1, 2]}, {}, {"A": 3}),
        "unordered-above-a-checkpoint": ({"A": [5, 4]}, {"A": 3}, {"A": 5}),
    }

    @pytest.mark.parametrize("seqs,counts,expected", ADMITTED.values(),
                             ids=list(ADMITTED))
    def test_a_shape_inside_the_invariant_is_admitted(self, seqs, counts,
                                                      expected):
        """Admitted, and it crosses a pickle and the wire (as its delta
        above nothing) as an equal vector."""
        vector = self.build(seqs, counts)
        assert vector.counts().as_dict() == expected
        for writer, held in seqs.items():
            assert [r.seq for r in vector.updates_from(writer)] == sorted(held)
        assert pickle.loads(pickle.dumps(vector)) == vector
        assert on_the_wire(vector) == vector

    #: each way a vector is derived past the constructor's check
    DERIVED = {
        "apply": lambda v: v.apply(rec("A", 4, 4.0)),
        "apply-many": lambda v: v.apply_many(
            [rec("A", 4, 4.0), rec("C", 1, 1.0), rec("A", 5, 5.0)])[0],
        "truncate-to": lambda v: v.truncate_to({"A": 3, "B": 1}),
        "merge-below-a-higher-checkpoint": lambda v: v.merge(
            TestConstructorInvariant.build({"A": [5]}, {"A": 4})),
        "merge-into-empty": lambda v: ExtendedVersionVector().merge(v),
        "with-consistent-time": lambda v: v.with_consistent_time(5.0),
    }

    @pytest.mark.parametrize("derive", DERIVED.values(), ids=list(DERIVED))
    def test_every_derived_vector_holds_the_invariant(self, derive):
        """``apply``, ``apply_many``, ``truncate_to``, ``merge`` and
        ``with_consistent_time`` skip the check: what they build passes it."""
        vector = derive(self.build({"A": [2, 3], "B": [1]}, {"A": 1}))
        rebuilt = ExtendedVersionVector(
            {w: vector.updates_from(w) for w in vector.writers()},
            vector.metadata, vector.last_consistent_time, vector.bases())
        assert rebuilt == vector
        assert rebuilt.counts() == vector.counts()


class TestApply:
    def test_apply_accumulates_counts_and_metadata(self):
        v = ExtendedVersionVector()
        v = v.apply(rec("A", 1, 1.0, delta=2.0))
        v = v.apply(rec("A", 2, 2.0, delta=3.0))
        assert v.count("A") == 2
        assert v.metadata == pytest.approx(5.0)
        assert v.counts().count("A") == 2

    def test_apply_is_immutable(self):
        v = ExtendedVersionVector()
        v2 = v.apply(rec("A", 1, 1.0))
        assert v.count("A") == 0
        assert v2.count("A") == 1

    def test_out_of_order_apply_rejected(self):
        v = ExtendedVersionVector()
        with pytest.raises(ValueError):
            v.apply(rec("A", 2, 1.0))

    def test_duplicate_apply_is_idempotent(self):
        v = ExtendedVersionVector().apply(rec("A", 1, 1.0))
        again = v.apply(rec("A", 1, 1.0))
        assert again is v

    def test_latest_update_time(self):
        v = ExtendedVersionVector.from_updates([rec("A", 1, 1.0), rec("B", 1, 7.0)])
        assert VersionDigest.from_vector("o", "n", v, 0.0).latest_update_time() == 7.0

    def test_all_updates_sorted_by_timestamp(self):
        v = ExtendedVersionVector.from_updates(
            [rec("A", 1, 5.0), rec("B", 1, 1.0), rec("A", 2, 9.0)])
        assert [r.timestamp for r in v.all_updates()] == [1.0, 5.0, 9.0]

    def test_update_keys(self):
        v = ExtendedVersionVector.from_updates([rec("A", 1, 1.0), rec("B", 1, 2.0)])
        assert v.update_keys() == {("A", 1), ("B", 1)}

    def test_apply_many_is_a_fold_of_apply(self):
        start = ExtendedVersionVector.from_updates([rec("A", 1, 1.0, delta=0.1)])
        batch = [rec("B", 1, 2.0, delta=0.2), rec("A", 1, 1.0, delta=0.1),
                 rec("A", 2, 3.0, delta=0.7), rec("B", 2, 4.0, delta=1e16),
                 rec("A", 3, 5.0, delta=-1e16), rec("C", 1, 6.0, delta=0.3)]
        folded = start
        for record in batch:
            folded = folded.apply(record)
        bulk, applied = start.apply_many(batch)
        assert applied == [r for r in batch if r.key() != ("A", 1)]
        assert bulk == folded
        assert repr(bulk.metadata) == repr(folded.metadata)
        assert list(bulk.counts().as_dict()) == list(folded.counts().as_dict())
        for writer in "ABC":
            assert all(x is y for x, y in zip(bulk.updates_from(writer),
                                              folded.updates_from(writer)))

    def test_apply_many_of_nothing_new_is_the_same_vector(self):
        v = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        assert v.apply_many([rec("A", 1, 1.0)]) == (v, [])
        assert v.apply_many([])[0] is v

    def test_apply_many_rejects_a_gap_anywhere_in_the_batch(self):
        v = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        with pytest.raises(ValueError, match="out-of-order update from 'B'"):
            v.apply_many([rec("A", 2, 2.0), rec("B", 1, 3.0), rec("B", 3, 4.0)])
        with pytest.raises(ValueError, match="got seq 0"):
            v.apply_many([rec("A", 0, 2.0)])


class TestMerge:
    def test_merge_unions_updates(self):
        a = ExtendedVersionVector.from_updates([rec("A", 1, 1.0), rec("A", 2, 2.0)])
        b = ExtendedVersionVector.from_updates([rec("B", 1, 3.0)])
        merged = a.merge(b)
        assert merged.count("A") == 2
        assert merged.count("B") == 1
        assert merged.metadata == pytest.approx(3.0)

    def test_merge_sets_consistent_time(self):
        a = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        b = ExtendedVersionVector.from_updates([rec("B", 1, 2.0)])
        merged = a.merge(b, consistent_time=9.0)
        assert merged.last_consistent_time == 9.0

    def test_missing_from(self):
        a = ExtendedVersionVector.from_updates(
            [rec("A", 1, 1.0), rec("A", 2, 2.0), rec("B", 1, 3.0)])
        b = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        missing = a.missing_from(b)
        assert {r.key() for r in missing} == {("A", 2), ("B", 1)}


class TestPaperFigure4:
    """Reproduce the worked example of Section 4.4.1 / Figure 4.

    Replica a has two updates from A (times 1 and 2, meta-data total 5) and
    misses B's update; replica b (the reference) has one update from B at
    time 3 whose meta-data value is 8 ... the paper's concrete numbers are
    chosen so that replica a ends with numerical error 3, order error 3 and
    staleness 2.
    """

    def build_replicas(self):
        # Replica a: A updated twice (t=1, t=2), final meta value 5.
        a = ExtendedVersionVector.from_updates(
            [rec("A", 1, 1.0, delta=2.0), rec("A", 2, 2.0, delta=3.0)],
            last_consistent_time=1.0)
        # Replica b (reference): B updated once at t=3, meta value 8.
        b = ExtendedVersionVector.from_updates(
            [rec("B", 1, 3.0, delta=8.0)], last_consistent_time=1.0)
        return a, b

    def test_vectors_conflict(self):
        a, b = self.build_replicas()
        # each holds an update the other lacks: neither count vector dominates
        assert a.count("A") > b.count("A") and b.count("B") > a.count("B")

    def test_error_triple_of_a_against_reference_b(self):
        a, b = self.build_replicas()
        triple = triple_against(a, b)
        # numerical: |5 - 8| = 3; order: misses one update, has two extra = 3;
        # staleness: b's latest update (3) - a's last consistent point (1) = 2.
        assert triple.numerical == pytest.approx(3.0)
        assert triple.order == pytest.approx(3.0)
        assert triple.staleness == pytest.approx(2.0)

    def test_reference_has_zero_error_against_itself(self):
        _, b = self.build_replicas()
        assert triple_against(b, b) == ErrorTriple(0.0, 0.0, max(0.0, 3.0 - 1.0))

    def test_consistency_levels_match_formula_one(self):
        """With max error 10 for every metric and equal weights (Figure 4(e))."""
        from repro.core.config import ConsistencyMetricSpec, MetricWeights
        from repro.core.quantify import consistency_level

        a, b = self.build_replicas()
        metric = ConsistencyMetricSpec(max_numerical=10, max_order=10, max_staleness=10)
        weights = MetricWeights.equal()
        level_a = consistency_level(triple_against(a, b), metric, weights)
        # (7/10 + 7/10 + 8/10) / 3 = 0.7333...
        assert level_a == pytest.approx((0.7 + 0.7 + 0.8) / 3, abs=1e-9)


class TestConsistentTime:
    def test_with_consistent_time_stamps_a_copy(self):
        v = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        v2 = v.with_consistent_time(5)
        assert v2.last_consistent_time == 5.0
        assert type(v2.last_consistent_time) is float
        assert v.last_consistent_time == 0.0 and v2 == v

    def test_staleness_zero_when_consistent_now(self):
        v = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        ref = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        v = v.with_consistent_time(10.0)
        assert triple_against(v, ref).staleness == 0.0


# ------------------------------------------------- merge ≡ the dict-walk union
def dict_walk_union(mine, theirs):
    """The union ``merge`` must equal, one seq at a time: the reference
    implementation of its one rule.

    Each side is a ``(records, checkpoints)`` pair of ``{writer: ...}``
    maps.  Writers in ``mine``'s order (records, then checkpoints), then
    the ones only ``theirs`` knows; per writer the higher checkpoint
    (``mine``'s on a tie), then every seq above it either side holds,
    ``mine``'s record where both do.  Returns ``(records, checkpoints,
    metadata)``, the metadata summed over the checkpoints, then the records,
    in that order.
    """
    (my_records, my_bases), (their_records, their_bases) = mine, theirs
    records, bases = {}, {}
    for writer in dict.fromkeys([*my_records, *my_bases, *their_records,
                                 *their_bases]):
        base = max(my_bases.get(writer, WriterBase.EMPTY),
                   their_bases.get(writer, WriterBase.EMPTY),
                   key=lambda b: b.count)
        by_seq = {r.seq: r for r in their_records.get(writer, ())
                  if r.seq > base.count}
        by_seq.update({r.seq: r for r in my_records.get(writer, ())
                       if r.seq > base.count})
        seqs = sorted(by_seq)
        assert seqs == list(range(base.count + 1, base.count + 1 + len(seqs)))
        if base.count:
            bases[writer] = base
        if seqs:
            records[writer] = tuple(by_seq[seq] for seq in seqs)
    metadata = float(sum([b.cum_metadata for b in bases.values()]
                         + [r.metadata_delta for held in records.values()
                            for r in held]))
    return records, bases, metadata


#: non-dyadic and mutually cancelling, so a changed summation order shows
cancelling_deltas = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 0.05, 1e16, -1e16, 1.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))


@st.composite
def vector_pairs(draw):
    """Two ``(records, checkpoints)`` sides over one history per writer.

    Each side holds a prefix of every writer's history as its *own* record
    objects (as after a ``live.wire`` decode), so identity tells which side
    the merge picked, and may fold any part of its prefix into a checkpoint
    of its own — above what the other side holds, too.  A side may hold
    nothing of a writer, or nothing at all, and neither side need dominate.
    """
    blank = draw(st.sampled_from([None, None, None, "mine", "theirs"]))
    sides = {"mine": ({}, {}), "theirs": ({}, {})}
    for writer in "ABCDE":
        history = [(float(seq), draw(cancelling_deltas)) for seq in range(1, 6)]
        for side, (records, bases) in sides.items():
            held = [rec(writer, seq, ts, delta)
                    for seq, (ts, delta) in enumerate(history, start=1)]
            held = held[:0 if side == blank else draw(st.integers(0, 5))]
            folded = draw(st.integers(0, len(held)))
            if folded:
                bases[writer] = WriterBase.EMPTY.fold(held[:folded])
            if held[folded:]:
                records[writer] = tuple(held[folded:])
    order = draw(st.permutations("ABCDE"))
    return tuple(tuple({w: part[w] for w in order if w in part} for part in side)
                 for side in sides.values())


class TestMergeMatchesDictWalk:
    @settings(max_examples=300, deadline=None)
    @given(vector_pairs(), st.floats(0, 100), st.floats(0, 100),
           st.one_of(st.none(), st.floats(0, 100)))
    def test_prefix_union_picks_what_the_dict_walk_picks(
            self, pair, t_mine, t_theirs, consistent_time):
        mine, theirs = pair
        a = ExtendedVersionVector(mine[0], last_consistent_time=t_mine,
                                  base=mine[1])
        b = ExtendedVersionVector(theirs[0], last_consistent_time=t_theirs,
                                  base=theirs[1])
        init = ExtendedVersionVector.__init__
        with mock.patch.object(ExtendedVersionVector, "__init__", autospec=True,
                               side_effect=init) as validating_init:
            merged = a.merge(b, consistent_time=consistent_time)
        # both sides hold the invariant: the union never needs re-checking
        assert validating_init.call_count == 0
        records, bases, metadata = dict_walk_union(mine, theirs)
        assert list(merged.counts().as_dict()) == [
            *records, *(w for w in bases if w not in records)]
        assert list(merged.bases()) == list(bases)
        assert all(merged.writer_base(w) is base for w, base in bases.items())
        for writer in "ABCDE":
            got = merged.updates_from(writer)
            held = records.get(writer, ())
            assert len(got) == len(held) and all(map(operator.is_, got, held))
        assert repr(merged.metadata) == repr(metadata)
        assert merged.last_consistent_time == (
            consistent_time if consistent_time is not None
            else max(t_mine, t_theirs))


class TestMergeWriterOrder:
    """The result's writer order — and with it the float — is stated, not hashed."""

    #: ``(mine, theirs, folded)``: (seq, delta) per writer, built for
    #: cancellation — each summation order of the five writers reads a
    #: different metadata — and the checkpoints ``truncate_to`` folds on
    #: each side.  In the second pair both sides hold charlie, the longer
    #: one this side; in the third a checkpoint joins the sum.
    PAIRS = [
        ({"alpha": [(1, 0.1), (2, 0.7)], "bravo": [(1, 0.2)], "charlie": [(1, 1e16)]},
         {"bravo": [(1, 0.2), (2, 0.3)], "delta": [(1, -1e16), (2, 0.4)],
          "echo": [(1, 0.05)]}, ({}, {})),
        ({"alpha": [(1, 0.1), (2, 0.7)], "bravo": [(1, 0.2)],
          "charlie": [(1, 0.3), (2, 1e16)]},
         {"bravo": [(1, 0.2), (2, 0.3)], "delta": [(1, -1e16), (2, 0.4)],
          "echo": [(1, 0.05)], "charlie": [(1, 0.3)]}, ({}, {})),
        ({"alpha": [(1, 0.1), (2, 0.7)], "bravo": [(1, 0.2)], "charlie": [(1, 1e16)]},
         {"bravo": [(1, 0.2), (2, 0.3)], "delta": [(1, -1e16), (2, 0.4)],
          "echo": [(1, 0.05)]}, ({"alpha": 1}, {"delta": 1})),
    ]

    SCRIPT = """
from repro.versioning.extended_vector import ExtendedVersionVector, UpdateRecord

def vector(histories, folded):
    return ExtendedVersionVector({
        writer: tuple(UpdateRecord(writer, seq, float(seq), delta)
                      for seq, delta in records)
        for writer, records in histories.items()}).truncate_to(folded)

for mine, theirs, (my_folds, their_folds) in %r:
    merged = vector(mine, my_folds).merge(vector(theirs, their_folds))
    print(repr(merged.metadata), list(merged.counts().as_dict()))
""" % (PAIRS,)

    def run_under(self, hash_seed: str) -> str:
        env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                   PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
        done = subprocess.run([sys.executable, "-c", self.SCRIPT],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr[-2000:]
        return done.stdout

    def test_merged_metadata_and_writer_order_do_not_depend_on_the_hash_seed(self):
        first = self.run_under("0").splitlines()
        assert first == self.run_under("1").splitlines()
        assert len(first) == len(self.PAIRS)
        for line in first:
            assert line.endswith("['alpha', 'bravo', 'charlie', 'delta', 'echo']")


# -------------------------------------- shared histories ≡ one tuple per vector
class TupleBacked:
    """The tuple-per-vector layout the prefix views replaced.

    ``apply``, ``apply_many``, ``truncate_to`` and ``missing_from`` are the
    bodies ``ExtendedVersionVector`` had when every vector owned a tuple per
    writer (docstrings and the consistent time dropped), and ``merge`` is
    its one rule over tuples; nothing here can alias, so it says what each
    vector must read however the vectors around it were extended.
    """

    def __init__(self, updates=None, base=None, metadata=0.0):
        self.updates = updates or {}
        self.base = base or {}
        self.metadata = metadata

    def count(self, writer):
        base = self.base.get(writer)
        return len(self.updates.get(writer, ())) + (base.count if base else 0)

    def base_count(self, writer):
        base = self.base.get(writer)
        return base.count if base is not None else 0

    def apply(self, record):
        existing = self.updates.get(record.writer, ())
        expected_seq = self.base_count(record.writer) + len(existing) + 1
        if record.seq != expected_seq:
            if 1 <= record.seq < expected_seq:
                return self
            raise ValueError("out-of-order")
        updates = dict(self.updates)
        updates[record.writer] = existing + (record,)
        return TupleBacked(updates, self.base,
                           self.metadata + record.metadata_delta)

    def apply_many(self, records):
        fresh, applied, metadata = {}, [], self.metadata
        for record in records:
            pending = fresh.get(record.writer)
            expected_seq = (pending[-1].seq if pending is not None
                            else self.count(record.writer)) + 1
            if record.seq != expected_seq:
                if 1 <= record.seq < expected_seq:
                    continue
                raise ValueError("out-of-order")
            if pending is None:
                fresh[record.writer] = [record]
            else:
                pending.append(record)
            metadata += record.metadata_delta
            applied.append(record)
        if not applied:
            return self, applied
        updates = dict(self.updates)
        for writer, pending in fresh.items():
            updates[writer] = updates.get(writer, ()) + tuple(pending)
        return TupleBacked(updates, self.base, metadata), applied

    def truncate_to(self, frontier):
        new_base = new_updates = None
        for writer, target in frontier.items():
            current_base = self.base.get(writer, WriterBase.EMPTY)
            tail = self.updates.get(writer, ())
            target = min(int(target), current_base.count + len(tail))
            fold_n = target - current_base.count
            if fold_n <= 0:
                continue
            if new_base is None:
                new_base = dict(self.base)
                new_updates = dict(self.updates)
            new_base[writer] = current_base.fold(tail[:fold_n])
            remaining = tail[fold_n:]
            if remaining:
                new_updates[writer] = remaining
            else:
                new_updates.pop(writer, None)
        if new_base is None:
            return self
        return TupleBacked(new_updates, new_base, self.metadata)

    def merge(self, other):
        """The one rule: the higher checkpoint, this side's records above
        it, then whatever ``other`` holds beyond them."""
        bases, updates = {}, {}
        for writer in dict.fromkeys([*self.updates, *self.base,
                                     *other.updates, *other.base]):
            base = max(self.base.get(writer, WriterBase.EMPTY),
                       other.base.get(writer, WriterBase.EMPTY),
                       key=lambda b: b.count)
            mine = self.updates.get(writer, ())[
                base.count - self.base_count(writer):]
            covered = base.count + len(mine) - other.base_count(writer)
            tail = mine + other.updates.get(writer, ())[covered:]
            if base.count:
                bases[writer] = base
            if tail:
                updates[writer] = tail
        metadata = float(sum([b.cum_metadata for b in bases.values()]
                             + [r.metadata_delta for recs in updates.values()
                                for r in recs]))
        return TupleBacked(updates, bases, metadata)

    def missing_from(self, other):
        missing = []
        for writer in (set(self.updates) | set(self.base)
                       if self.base else self.updates):
            tail = self.updates.get(writer, ())
            have = other.count(writer)
            base_count = self.base_count(writer)
            if have >= base_count + len(tail):
                continue
            if have < base_count:
                raise TruncatedHistoryError(writer)
            missing.extend(tail[have - base_count:])
        missing.sort(key=lambda r: (r.writer, r.seq))
        return missing


#: one history per writer; every vector of a run holds prefixes of these
UNIVERSE = {writer: [rec(writer, seq, 10.0 * seq + offset, delta)
                     for seq, delta in enumerate(
                         [0.1, 0.7, -0.3, 1e16, -1e16, 0.05, 3.0, 0.2], start=1)]
            for offset, writer in enumerate("ABC")}

steps = st.lists(st.tuples(
    st.sampled_from(["apply", "apply_many", "merge", "truncate_to",
                     "missing_from"]),
    st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
    st.sampled_from("ABC"), st.integers(0, 4)), min_size=1, max_size=40)


def assert_reads_like(vector, model, *, same=lambda x, y: x is y):
    assert list(vector.counts().as_dict()) == [
        w for w in dict.fromkeys([*model.updates, *model.base])]
    for writer in "ABC":
        held = model.updates.get(writer, ())
        got = vector.updates_from(writer)
        assert len(got) == len(held) and all(map(same, got, held))
        assert vector.count(writer) == model.count(writer)
        assert vector.updates_above(writer, model.base_count(writer) + 1) \
            == list(held[1:])
    assert vector.bases() == model.base
    assert repr(vector.metadata) == repr(model.metadata)
    assert vector.total_updates() == sum(model.count(w) for w in "ABC")


def same_content(a, b):
    return (a.updates == b.updates and a.base == b.base
            and a.metadata == b.metadata)


class TestSharedHistories:
    @settings(max_examples=300, deadline=None)
    @given(steps)
    def test_aliased_vectors_read_like_vectors_that_share_nothing(self, steps):
        """Any vector of the pool may be extended after a later one was cut
        from it; each must keep reading what its tuple-backed twin holds."""
        pool = [(ExtendedVersionVector(), TupleBacked())]
        for op, i, j, writer, k in steps:
            vector, model = pool[i % len(pool)]
            other, other_model = pool[j % len(pool)]
            # from the writer's last held record on: a duplicate, then news
            upcoming = UNIVERSE[writer][max(0, model.count(writer) - 1):]
            if op == "apply":
                args = model_args = (upcoming[k % 3:] or upcoming)[:1]
                if not args:
                    continue
            elif op == "apply_many":
                args = model_args = (
                    upcoming[:k] + UNIVERSE["B"][other_model.count("B"):][:2],)
            elif op == "truncate_to":
                args = model_args = ({writer: k, "C": j % 5},)
            else:
                args, model_args = (other,), (other_model,)
            try:
                expected = getattr(model, op)(*model_args)
            except (ValueError, TruncatedHistoryError) as refused:
                with pytest.raises(type(refused)):
                    getattr(vector, op)(*args)
                continue
            got = getattr(vector, op)(*args)
            if op == "missing_from":
                assert len(got) == len(expected)
                assert all(x is y for x, y in zip(got, expected))
                continue
            if op == "apply_many":
                assert got[1] == expected[1]
                got, expected = got[0], expected[0]
            assert_reads_like(got, expected)
            assert (got == vector) == same_content(expected, model)
            pool.append((got, expected))
        for vector, model in pool:
            assert_reads_like(vector, model)
            assert_reads_like(pickle.loads(pickle.dumps(vector)), model,
                              same=lambda x, y: x == y)

    def test_merge_leaves_both_operands_alone(self):
        a = ExtendedVersionVector.from_updates(UNIVERSE["A"][:3] + UNIVERSE["B"][:1])
        b = ExtendedVersionVector.from_updates(UNIVERSE["A"][:5] + UNIVERSE["C"][:2])
        before = [(v.counts().as_dict(), {w: v.updates_from(w) for w in "ABC"})
                  for v in (a, b)]
        merged = a.merge(b)
        again = b.merge(a).merge(a.apply(UNIVERSE["A"][3]))
        assert merged.counts().as_dict() == {"A": 5, "B": 1, "C": 2}
        assert again.counts() == merged.counts()
        assert before == [(v.counts().as_dict(),
                           {w: v.updates_from(w) for w in "ABC"}) for v in (a, b)]

    @pytest.mark.parametrize("carry", [
        lambda v: pickle.loads(pickle.dumps(v)), on_the_wire],
        ids=["pickle", "live.wire"])
    def test_an_older_vector_travels_with_its_own_prefix(self, carry):
        """Pickles and live install frames: what a newer vector appended
        to the shared list stays behind."""
        older = ExtendedVersionVector.from_updates(UNIVERSE["A"][:2])
        newer = older.apply(UNIVERSE["A"][2]).apply(UNIVERSE["B"][0])
        assert newer.count("A") == 3
        carried = carry(older)
        assert carried == older and carried != newer
        assert carried.updates_from("A") == UNIVERSE["A"][:2]
        assert carried.counts().as_dict() == {"A": 2}
        assert carry(newer) == newer
        # ... and what arrived is a history of its own
        assert carried.apply(UNIVERSE["A"][2]).count("A") == 3
        assert older.count("A") == 2


def test_extended_vector_pickle_round_trip():
    vector = ExtendedVersionVector()
    for seq, writer in enumerate(["w-a", "w-a", "w-b"], start=1):
        seq_for_writer = vector.count(writer) + 1
        vector = vector.apply(UpdateRecord(
            writer=writer, seq=seq_for_writer, timestamp=float(seq),
            metadata_delta=1.0))
    vector.counts()  # populate the cached VersionVector (and its dense())
    clone = pickle.loads(pickle.dumps(vector))
    assert clone == vector
    assert clone._counts_cache is None  # caches not carried across
    assert clone.counts() == vector.counts()
    assert clone.metadata == vector.metadata
