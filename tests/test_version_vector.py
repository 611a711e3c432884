"""Unit tests for classic version vectors."""

from __future__ import annotations

import pickle

import pytest

from repro.versioning.version_vector import Ordering, VersionVector


class TestConstruction:
    def test_empty_vector_is_falsy(self):
        assert not VersionVector()
        assert len(VersionVector()) == 0

    def test_zero_counts_are_normalised_away(self):
        assert VersionVector({"A": 0}) == VersionVector()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            VersionVector({"A": -1})

    def test_from_items(self):
        vv = VersionVector.from_items([("A", 2), ("B", 1)])
        assert vv.count("A") == 2
        assert vv.count("B") == 1

    def test_total_updates(self):
        assert VersionVector({"A": 3, "B": 5}).total_updates() == 8

    def test_writers_sorted(self):
        assert VersionVector({"B": 1, "A": 1}).writers() == ("A", "B")


class TestComparison:
    def test_equal(self):
        a = VersionVector({"A": 1, "B": 2})
        b = VersionVector({"B": 2, "A": 1})
        assert a.compare(b) is Ordering.EQUAL
        assert a == b
        assert hash(a) == hash(b)

    def test_dominance(self):
        small = VersionVector({"A": 1})
        big = VersionVector({"A": 2, "B": 1})
        assert small.compare(big) is Ordering.BEFORE
        assert big.compare(small) is Ordering.AFTER
        assert big.dominates(small)
        assert not small.dominates(big)

    def test_concurrent_paper_example(self):
        """The paper's example: (A:5, B:3) is not comparable with (A:3, B:6)."""
        u = VersionVector({"A": 5, "B": 3})
        v = VersionVector({"A": 3, "B": 6})
        assert u.compare(v) is Ordering.CONCURRENT
        assert u.concurrent_with(v)
        assert not u.compare(v).comparable

    def test_comparable_property(self):
        assert Ordering.EQUAL.comparable
        assert Ordering.BEFORE.comparable
        assert Ordering.AFTER.comparable
        assert not Ordering.CONCURRENT.comparable

    def test_missing_writer_treated_as_zero(self):
        a = VersionVector({"A": 1})
        b = VersionVector({"A": 1, "B": 1})
        assert a.compare(b) is Ordering.BEFORE


class TestMergeAndIncrement:
    def test_increment_returns_new_vector(self):
        a = VersionVector()
        b = a.increment("A")
        assert a.count("A") == 0
        assert b.count("A") == 1

    def test_increment_negative_rejected(self):
        with pytest.raises(ValueError):
            VersionVector().increment("A", -1)

    def test_merge_is_pointwise_max(self):
        a = VersionVector({"A": 3, "B": 1})
        b = VersionVector({"A": 1, "B": 4, "C": 2})
        merged = a.merge(b)
        assert merged == VersionVector({"A": 3, "B": 4, "C": 2})

    def test_merge_dominates_both_inputs(self):
        a = VersionVector({"A": 2})
        b = VersionVector({"B": 3})
        merged = a.merge(b)
        assert merged.dominates(a)
        assert merged.dominates(b)


class TestDistances:
    def test_difference_lists_missing_updates(self):
        a = VersionVector({"A": 3, "B": 1})
        b = VersionVector({"A": 1, "B": 1})
        assert a.difference(b) == {"A": 2}
        assert b.difference(a) == {}

    def test_order_distance_matches_paper_example(self):
        """Figure 4: replica a misses one update and has two extra ⇒ error 3."""
        a = VersionVector({"A": 2, "B": 1})
        reference = VersionVector({"A": 0, "B": 2})
        # a has two extra from A, misses one from B: distance 3
        assert a.order_distance(reference) == 3

    def test_order_distance_symmetric(self):
        a = VersionVector({"A": 5})
        b = VersionVector({"B": 2})
        assert a.order_distance(b) == b.order_distance(a) == 7

    def test_order_distance_zero_iff_equal(self):
        a = VersionVector({"A": 1})
        assert a.order_distance(VersionVector({"A": 1})) == 0


def test_version_vector_pickle_drops_interned_dense_cache():
    """GLOBAL_WRITERS interning is per process: a pickled vector must not
    carry its dense projection into another one."""
    vector = VersionVector({"w-a": 3, "w-b": 1})
    vector.dense()  # populate the process-local projection
    clone = pickle.loads(pickle.dumps(vector))
    assert clone == vector and clone._dense is None
    assert clone.dense() == vector.dense()  # re-derived locally
