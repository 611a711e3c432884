"""Unit tests for extended version vectors, including the paper's Figure 4."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.live.wire import roundtrip
from repro.versioning.extended_vector import (ErrorTriple, ExtendedVersionVector,
                                              TruncatedHistoryError, UpdateRecord,
                                              WriterBase)
from repro.versioning.version_vector import Ordering

SRC = Path(__file__).resolve().parent.parent / "src"


def rec(writer: str, seq: int, ts: float, delta: float = 1.0, payload=None) -> UpdateRecord:
    return UpdateRecord(writer=writer, seq=seq, timestamp=ts, metadata_delta=delta,
                        payload=payload)


class TestErrorTriple:
    def test_zero_constant(self):
        assert ErrorTriple.ZERO.as_tuple() == (0.0, 0.0, 0.0)

    def test_negative_component_rejected(self):
        with pytest.raises(ValueError):
            ErrorTriple(numerical=-1.0)

    def test_max_with(self):
        a = ErrorTriple(1, 5, 2)
        b = ErrorTriple(3, 1, 2)
        assert a.max_with(b) == ErrorTriple(3, 5, 2)


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
        assert v.latest_update_time() == 7.0

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

    def test_merge_resets_triple(self):
        a = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)]).with_triple(
            ErrorTriple(1, 1, 1))
        b = ExtendedVersionVector.from_updates([rec("B", 1, 2.0)])
        assert a.merge(b).triple == ErrorTriple.ZERO

    def test_merge_with_gap_rejected(self):
        # A vector claiming A:2 exists without A:1 (possible only by poking
        # internals) cannot be merged: the union would have a sequence hole.
        broken = ExtendedVersionVector({"A": (rec("A", 2, 2.0),)})
        other = ExtendedVersionVector.from_updates([rec("B", 1, 1.0)])
        with pytest.raises(ValueError):
            other.merge(broken)

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
        assert a.compare(b) is Ordering.CONCURRENT

    def test_error_triple_of_a_against_reference_b(self):
        a, b = self.build_replicas()
        triple = a.error_triple_against(b)
        # numerical: |5 - 8| = 3; order: misses one update, has two extra = 3;
        # staleness: b's latest update (3) - a's last consistent point (1) = 2.
        assert triple.numerical == pytest.approx(3.0)
        assert triple.order == pytest.approx(3.0)
        assert triple.staleness == pytest.approx(2.0)

    def test_reference_has_zero_error_against_itself(self):
        _, b = self.build_replicas()
        assert b.error_triple_against(b) == ErrorTriple(0.0, 0.0, max(0.0, 3.0 - 1.0))

    def test_consistency_levels_match_formula_one(self):
        """With max error 10 for every metric and equal weights (Figure 4(e))."""
        from repro.core.config import ConsistencyMetricSpec, MetricWeights
        from repro.core.quantify import consistency_level

        a, b = self.build_replicas()
        metric = ConsistencyMetricSpec(max_numerical=10, max_order=10, max_staleness=10)
        weights = MetricWeights.equal()
        level_a = consistency_level(a.error_triple_against(b), metric, weights)
        # (7/10 + 7/10 + 8/10) / 3 = 0.7333...
        assert level_a == pytest.approx((0.7 + 0.7 + 0.8) / 3, abs=1e-9)


class TestConsistentTime:
    def test_with_consistent_time_resets_triple(self):
        v = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)]).with_triple(
            ErrorTriple(1, 2, 3))
        v2 = v.with_consistent_time(5.0)
        assert v2.last_consistent_time == 5.0
        assert v2.triple == ErrorTriple.ZERO

    def test_staleness_zero_when_consistent_now(self):
        v = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        ref = ExtendedVersionVector.from_updates([rec("A", 1, 1.0)])
        v = v.with_consistent_time(10.0)
        assert v.error_triple_against(ref).staleness == 0.0


# ------------------------------------------------- merge ≡ the dict-walk union
def dict_walk_union(mine, theirs):
    """The union ``merge`` must equal, one seq at a time.

    Writers in ``mine``'s order, then the ones only ``theirs`` knows; per
    writer every seq either side holds, ``mine``'s record where both do.
    Raises ``ValueError`` when a writer's union is not 1..n.
    """
    union = {}
    for writer in list(mine) + [w for w in theirs if w not in mine]:
        by_seq = {r.seq: r for r in theirs.get(writer, ())}
        by_seq.update({r.seq: r for r in mine.get(writer, ())})
        seqs = sorted(by_seq)
        if seqs != list(range(1, len(seqs) + 1)):
            raise ValueError(f"gap for {writer}")
        union[writer] = tuple(by_seq[seq] for seq in seqs)
    return union


#: non-dyadic and mutually cancelling, so a changed summation order shows
cancelling_deltas = st.one_of(
    st.sampled_from([0.1, 0.2, 0.3, 0.7, 0.05, 1e16, -1e16, 1.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))


@st.composite
def history_pairs(draw, *, contiguous, deltas=cancelling_deltas):
    """Two ``{writer: records}`` maps over one history per writer.

    Each side holds a prefix of every writer's history as its *own* record
    objects (as after a ``live.wire`` decode), so identity tells which side
    the merge picked.  A side may hold nothing of a writer, or nothing at
    all, and neither side need dominate.  With ``contiguous=False`` a side
    may have lost a leading run of a writer's records.
    """
    blank = draw(st.sampled_from([None, None, None, "mine", "theirs"]))
    sides = {"mine": {}, "theirs": {}}
    for writer in "ABCDE":
        history = [(float(seq), draw(deltas)) for seq in range(1, 6)]
        for side, held in sides.items():
            records = [rec(writer, seq, ts, delta)
                       for seq, (ts, delta) in enumerate(history, start=1)]
            records = records[:0 if side == blank else draw(st.integers(0, 5))]
            if not contiguous and records:
                records = records[draw(st.integers(0, len(records) - 1)):]
            held[writer] = tuple(records)
    return tuple({w: side[w] for w in draw(st.permutations("ABCDE")) if side[w]}
                 for side in sides.values())


def assert_is_the_union(merged, union, *, time):
    assert list(merged.counts().as_dict()) == list(union)
    for writer, records in union.items():
        got = merged.updates_from(writer)
        assert len(got) == len(records)
        assert all(x is y for x, y in zip(got, records))
    assert merged.metadata == sum(
        r.metadata_delta for records in union.values() for r in records)
    assert merged.last_consistent_time == time
    assert merged.triple is ErrorTriple.ZERO


class TestMergeMatchesDictWalk:
    @settings(max_examples=200, deadline=None)
    @given(history_pairs(contiguous=True), st.floats(0, 100), st.floats(0, 100),
           st.one_of(st.none(), st.floats(0, 100)))
    def test_prefix_union_picks_what_the_dict_walk_picks(self, pair, t_mine,
                                                         t_theirs, consistent_time):
        mine, theirs = pair
        a = ExtendedVersionVector(mine, last_consistent_time=t_mine).with_triple(
            ErrorTriple(1, 2, 3))
        b = ExtendedVersionVector(theirs, last_consistent_time=t_theirs)
        init = ExtendedVersionVector.__init__
        with mock.patch.object(ExtendedVersionVector, "__init__", autospec=True,
                               side_effect=init) as validating_init:
            merged = a.merge(b, consistent_time=consistent_time)
        # 1..n on both sides never needs the re-sorting, re-checking constructor
        assert validating_init.call_count == 0
        assert_is_the_union(
            merged, dict_walk_union(mine, theirs),
            time=(consistent_time if consistent_time is not None
                  else max(t_mine, t_theirs)))

    @settings(max_examples=200, deadline=None)
    @given(history_pairs(contiguous=False))
    def test_histories_that_are_not_1_to_n_take_the_walk_and_a_gap_raises(self, pair):
        mine, theirs = pair
        a = ExtendedVersionVector(mine, last_consistent_time=1.0)
        b = ExtendedVersionVector(theirs, last_consistent_time=2.0)
        try:
            union = dict_walk_union(mine, theirs)
        except ValueError:
            with pytest.raises(ValueError, match="missing intermediate updates"):
                a.merge(b)
            return
        assert_is_the_union(a.merge(b), union, time=2.0)

    @settings(max_examples=100, deadline=None)
    @given(history_pairs(contiguous=True, deltas=st.floats(-1e3, 1e3)),
           st.dictionaries(st.sampled_from("ABCDE"), st.integers(1, 5), min_size=1),
           st.booleans())
    def test_a_checkpointed_side_keeps_the_base_layout(self, pair, frontier, fold_mine):
        mine, theirs = pair
        union = dict_walk_union(mine, theirs)
        # a stable prefix is one every replica holds: fold no further than both do
        frontier = {w: min(n, len(mine.get(w, ())), len(theirs.get(w, ())))
                    for w, n in frontier.items()}
        a = ExtendedVersionVector(mine)
        b = ExtendedVersionVector(theirs)
        if fold_mine:
            a = a.truncate_to(frontier)
        else:
            b = b.truncate_to(frontier)
        merged = a.merge(b)
        assert merged.counts().as_dict() == {w: len(r) for w, r in union.items()}
        assert merged.bases() == (a if fold_mine else b).bases()
        for writer, records in union.items():
            tail = records[merged.base_count(writer):]
            assert len(merged.updates_from(writer)) == len(tail)
            assert all(x is y for x, y in zip(merged.updates_from(writer), tail))
        assert merged.metadata == pytest.approx(sum(
            r.metadata_delta for records in union.values() for r in records))


class TestMergeWriterOrder:
    """The result's writer order — and with it the float — is stated, not hashed."""

    #: (seq, delta) per writer, built for cancellation: each summation order
    #: of the five writers reads a different metadata.  In the second pair
    #: one side holds charlie from seq 2, which is the dict walk's input.
    PAIRS = [
        ({"alpha": [(1, 0.1), (2, 0.7)], "bravo": [(1, 0.2)], "charlie": [(1, 1e16)]},
         {"bravo": [(1, 0.2), (2, 0.3)], "delta": [(1, -1e16), (2, 0.4)],
          "echo": [(1, 0.05)]}),
        ({"alpha": [(1, 0.1), (2, 0.7)], "bravo": [(1, 0.2)], "charlie": [(2, 1e16)]},
         {"bravo": [(1, 0.2), (2, 0.3)], "delta": [(1, -1e16), (2, 0.4)],
          "echo": [(1, 0.05)], "charlie": [(1, 0.3)]}),
    ]

    SCRIPT = """
from repro.versioning.extended_vector import ExtendedVersionVector, UpdateRecord

def vector(histories):
    return ExtendedVersionVector({
        writer: tuple(UpdateRecord(writer, seq, float(seq), delta)
                      for seq, delta in records)
        for writer, records in histories.items()})

for mine, theirs in %r:
    merged = vector(mine).merge(vector(theirs))
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

    ``apply``, ``apply_many``, ``merge``, ``truncate_to`` and ``missing_from``
    are the bodies ``ExtendedVersionVector`` had when every vector owned a
    tuple per writer (docstrings, the triple and the consistent time
    dropped); nothing here can alias, so it says what each vector must read
    however the vectors around it were extended.
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
        if self.base or other.base:
            return self._merge_with_bases(other)
        mine, theirs = self.updates, other.updates
        updates = dict(mine)
        for writer, recs in theirs.items():
            have = mine.get(writer)
            if have is None:
                updates[writer] = recs
            elif len(recs) > len(have):
                updates[writer] = have + recs[len(have):]
        metadata = float(sum(r.metadata_delta for recs in updates.values()
                             for r in recs))
        return TupleBacked(updates, None, metadata)

    def _merge_with_bases(self, other):
        bases, updates, metadata = {}, {}, 0.0
        for writer in sorted(set(self.updates) | set(self.base)
                             | set(other.updates) | set(other.base)):
            my_base = self.base.get(writer, WriterBase.EMPTY)
            their_base = other.base.get(writer, WriterBase.EMPTY)
            base = my_base if my_base.count >= their_base.count else their_base
            merged = {r.seq: r for r in other.updates.get(writer, ())
                      if r.seq > base.count}
            for r in self.updates.get(writer, ()):
                if r.seq > base.count:
                    merged[r.seq] = r
            seqs = sorted(merged)
            if seqs != list(range(base.count + 1, base.count + 1 + len(seqs))):
                raise ValueError("cannot merge: missing intermediate updates")
            tail = tuple(merged[s] for s in seqs)
            if base.count:
                bases[writer] = base
            if tail:
                updates[writer] = tail
            metadata += base.cum_metadata
            for r in tail:
                metadata += r.metadata_delta
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
        lambda v: pickle.loads(pickle.dumps(v)), roundtrip],
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
