"""Classic version vectors (Parker et al., 1983).

A version vector maps each writer identity to the number of updates that
writer has applied to a replica.  Two replicas are consistent exactly when
their vectors are equal; a vector *dominates* another when it has seen at
least as many updates from every writer; two vectors that do not dominate
each other are *concurrent* (the replicas conflict and, per Section 4.5.1 of
the paper, a resolution policy must decide the outcome).
"""

from __future__ import annotations

import enum
from operator import ge as _ge, sub as _sub
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.versioning.writers import GLOBAL_WRITERS

#: modelled wire size of one replica's version digest (bytes), which the top
#: layer's announce and a gossip hop both charge; version vectors "only need
#: several bits" per entry, so digests are small
DIGEST_BYTES = 256


class Ordering(enum.Enum):
    """Outcome of comparing two version vectors."""

    EQUAL = "equal"
    BEFORE = "before"        # self < other: other dominates
    AFTER = "after"          # self > other: self dominates
    CONCURRENT = "concurrent"  # incomparable: conflicting updates

    @property
    def comparable(self) -> bool:
        """True when the two vectors are ordered (u < v, u = v or u > v)."""
        return self is not Ordering.CONCURRENT


class VersionVector:
    """An immutable mapping from writer id to update count.

    Zero entries are normalised away so that ``VersionVector({"A": 0}) ==
    VersionVector()``; this keeps equality and hashing well defined as
    writers join over time.
    """

    __slots__ = ("_counts", "_hash", "_total", "_dense")

    def __init__(self, counts: Mapping[str, int] | None = None) -> None:
        cleaned: Dict[str, int] = {}
        if counts:
            for writer, count in counts.items():
                if count < 0:
                    raise ValueError(f"negative update count for {writer!r}: {count}")
                if count > 0:
                    cleaned[str(writer)] = int(count)
        self._counts: Dict[str, int] = cleaned
        self._hash: int | None = None
        self._total: int | None = None
        self._dense: Tuple[int, ...] | None = None

    @classmethod
    def _from_trusted(cls, counts: Dict[str, int]) -> "VersionVector":
        """Wrap an already-validated counts dict without copying or checks.

        Internal fast path: the caller guarantees every count is a positive
        int keyed by str and transfers ownership of the dict.
        """
        vector = cls.__new__(cls)
        vector._counts = counts
        vector._hash = None
        vector._total = None
        vector._dense = None
        return vector

    # ----------------------------------------------------------- inspection
    def count(self, writer: str) -> int:
        """Number of updates from ``writer`` reflected in this vector."""
        return self._counts.get(writer, 0)

    def writers(self) -> Tuple[str, ...]:
        return tuple(sorted(self._counts))

    def total_updates(self) -> int:
        """Total number of updates across all writers (cached; immutable)."""
        total = self._total
        if total is None:
            total = self._total = sum(self._counts.values())
        return total

    def dense(self) -> Tuple[int, ...]:
        """Array projection indexed by the interned writer id (memoised).

        ``dense()[wid]`` is the count of the writer with
        :data:`~repro.versioning.writers.GLOBAL_WRITERS` id ``wid``; the
        tuple is truncated after the highest id present, so its last element
        is always positive.  Comparisons over two projections run as C-level
        ``map``/``all``/``sum`` passes instead of per-writer dict walks.
        """
        dense = self._dense
        if dense is None:
            counts = self._counts
            if not counts:
                dense = self._dense = ()
            else:
                intern = GLOBAL_WRITERS.intern
                ids = {intern(w): c for w, c in counts.items()}
                arr = [0] * (1 + max(ids))
                for wid, count in ids.items():
                    arr[wid] = count
                dense = self._dense = tuple(arr)
        return dense

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._counts))

    def __len__(self) -> int:
        return len(self._counts)

    def __bool__(self) -> bool:
        return bool(self._counts)

    # ------------------------------------------------------------- mutation
    def increment(self, writer: str, amount: int = 1) -> "VersionVector":
        """Return a new vector with ``writer``'s count increased."""
        if amount < 0:
            raise ValueError("amount must be non-negative")
        if amount == 0:
            return self  # immutable: a zero increment is the same vector
        counts = dict(self._counts)
        counts[str(writer)] = counts.get(writer, 0) + int(amount)
        return VersionVector._from_trusted(counts)

    def merge(self, other: "VersionVector") -> "VersionVector":
        """Pointwise maximum — the least vector dominating both inputs.

        When one vector already dominates the other, the dominating instance
        is returned as-is (vectors are immutable, so sharing is safe).
        """
        ordering = self.compare(other)
        if ordering is Ordering.EQUAL or ordering is Ordering.AFTER:
            return self
        if ordering is Ordering.BEFORE:
            return other
        counts = dict(self._counts)
        get = counts.get
        for writer, count in other._counts.items():
            if count > get(writer, 0):
                counts[writer] = count
        return VersionVector._from_trusted(counts)

    # ------------------------------------------------------------ comparison
    def compare(self, other: "VersionVector") -> Ordering:
        """Classify the relationship between two vectors.

        Runs over the dense id-indexed projections: domination in either
        direction is one C-level ``all(map(ge, ...))`` pass (``map`` stops at
        the shorter tuple; the longer side trivially dominates the indices
        the shorter one lacks, because its own trailing entry is positive).
        """
        if self._counts == other._counts:
            return Ordering.EQUAL
        a = self.dense()
        b = other.dense()
        if len(a) >= len(b) and all(map(_ge, a, b)):
            return Ordering.AFTER
        if len(b) >= len(a) and all(map(_ge, b, a)):
            return Ordering.BEFORE
        return Ordering.CONCURRENT

    def dominates(self, other: "VersionVector") -> bool:
        """True if this vector has seen every update the other has."""
        a = self.dense()
        b = other.dense()
        return len(a) >= len(b) and all(map(_ge, a, b))

    def concurrent_with(self, other: "VersionVector") -> bool:
        return self.compare(other) is Ordering.CONCURRENT

    def difference(self, other: "VersionVector") -> Dict[str, int]:
        """Per-writer updates present here but missing from ``other``."""
        out: Dict[str, int] = {}
        for writer in set(self._counts) | set(other._counts):
            gap = self.count(writer) - other.count(writer)
            if gap > 0:
                out[writer] = gap
        return out

    def order_distance(self, other: "VersionVector") -> int:
        """Total update-count gap in both directions.

        This is the paper's *order error* between two plain vectors: in the
        worked example of Figure 4, replica ``a`` "misses one update and has
        two extra ones, so the order error is 3".
        """
        a = self.dense()
        b = other.dense()
        # |a[i] - b[i]| over the shared prefix (map stops at the shorter
        # tuple) plus whatever the longer tail contributes one-sidedly.
        distance = sum(map(abs, map(_sub, a, b)))
        if len(a) > len(b):
            distance += sum(a[len(b):])
        elif len(b) > len(a):
            distance += sum(b[len(a):])
        return distance

    # ------------------------------------------------------------ pickling
    def __reduce__(self):
        """Pickle the counts only, never the memoised caches.

        ``dense()`` memoises a projection indexed by the *process-local*
        :data:`~repro.versioning.writers.GLOBAL_WRITERS` interning order.
        Default ``__slots__`` pickling would carry that projection across a
        process boundary — any ``multiprocessing`` pipe, a farm result —
        where the receiving process's table may have interned writers in a
        different order.  Reconstructing from the counts alone makes every
        unpickled vector re-derive its caches against the local table.
        """
        return (_restore_vector, (self._counts,))

    # ------------------------------------------------------------- dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = self._hash = hash(tuple(sorted(self._counts.items())))
        return cached

    def __repr__(self) -> str:
        inner = " ".join(f"{w}:{c}" for w, c in sorted(self._counts.items()))
        return f"<VV {inner or 'empty'}>"

    # ------------------------------------------------------------ construction
    @classmethod
    def from_items(cls, items: Iterable[Tuple[str, int]]) -> "VersionVector":
        return cls(dict(items))


def _restore_vector(counts: Dict[str, int]) -> VersionVector:
    """Pickle reconstructor: rebuild from plain counts with empty caches."""
    return VersionVector._from_trusted(counts)
