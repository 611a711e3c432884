"""Unit tests for classic version vectors."""

from __future__ import annotations

import pickle

import pytest

from repro.versioning.version_vector import VersionVector


class TestConstruction:
    def test_empty_vector_is_falsy(self):
        assert not VersionVector()
        assert len(VersionVector()) == 0

    def test_zero_counts_are_normalised_away(self):
        assert VersionVector({"A": 0}) == VersionVector()

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            VersionVector({"A": -1})

    def test_total_updates(self):
        assert VersionVector({"A": 3, "B": 5}).total_updates() == 8

    def test_writers_sorted(self):
        assert VersionVector({"B": 1, "A": 1}).writers() == ("A", "B")


class TestComparison:
    def test_equal(self):
        a = VersionVector({"A": 1, "B": 2})
        b = VersionVector({"B": 2, "A": 1})
        assert a == b
        assert hash(a) == hash(b)


class TestDistances:
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
