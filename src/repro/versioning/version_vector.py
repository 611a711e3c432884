"""Classic version vectors (Parker et al., 1983).

A version vector maps each writer identity to the number of updates that
writer has applied to a replica.  Two replicas are consistent exactly when
their vectors are equal; the total count gap between two vectors is the
paper's *order error*.  Detection, the stability frontier and the error
triple read counts through this type; the merge algebra lives on the
extended vector.
"""

from __future__ import annotations

from operator import sub as _sub
from typing import Dict, Iterator, Mapping, Tuple

from repro.versioning.writers import GLOBAL_WRITERS

#: modelled wire size of one replica's version digest (bytes), which the top
#: layer's announce and a gossip hop both charge; version vectors "only need
#: several bits" per entry, so digests are small
DIGEST_BYTES = 256


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

    # ------------------------------------------------------------ comparison
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


def _restore_vector(counts: Dict[str, int]) -> VersionVector:
    """Pickle reconstructor: rebuild from plain counts with empty caches."""
    return VersionVector._from_trusted(counts)
