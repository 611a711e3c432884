"""Shared per-node incremental digest builder.

A node hosting hundreds of IDEA-managed objects evaluates consistency levels
constantly: every local write *and* every digest received from a top-layer
peer reads the local replica's :class:`~repro.core.detection
.VersionDigest`, which costs O(updates applied so far) when built from
scratch.  The seed architecture paid that cost on every evaluation; at 256
objects per node the digest rebuild dominated the whole simulation.

Two pieces keep it cheap.  Each :class:`~repro.core.detection
.DetectionService` memoises its replica's digest by the replica's mutation
``revision``, so an unchanged replica is answered without a rebuild — the
top-layer announce and the gossip sweep both read that memo.  A changed
revision reaches :class:`DigestCache`, owned by the :class:`~repro.runtime
.NodeRuntime` and shared by every object on the node, which folds each
writer's :class:`~repro.versioning.extended_vector.WriterBase` forward from
the last one it built: a single new write costs O(1) instead of re-walking
the writer's records.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.detection import VersionDigest
from repro.store.replica import Replica
from repro.versioning.extended_vector import WriterBase


class DigestCache:
    """Node-level incremental digest folds shared across all hosted objects."""

    __slots__ = ("_summaries", "hits", "misses")

    def __init__(self) -> None:
        #: object_id -> {writer -> interned (writer, WriterBase) pair};
        #: per-writer folds reused across rebuilds (records are
        #: append-only), and the interned pair tuple means a rebuild after
        #: one write allocates one new fold — every unchanged writer's pair
        #: is recycled by reference
        self._summaries: Dict[str, Dict[str, Tuple[str, WriterBase]]] = {}
        #: local-digest lookups by outcome.  The caller keeps the
        #: ``(revision, digest)`` of its last answer and answers an
        #: unchanged revision itself (``DetectionService.local_digest``),
        #: counting the hit here; every call that reaches
        #: :meth:`local_digest` is a miss.
        self.hits = 0
        self.misses = 0

    def local_digest(self, object_id: str, replica: Replica,
                     now: float) -> VersionDigest:
        """The replica's digest issued at ``now``, built incrementally.

        Per-writer folds are carried forward from the cached state, so a
        single new write costs O(1) instead of re-walking the whole record
        history.
        """
        self.misses += 1
        vector = replica.vector
        summaries = self._summaries.setdefault(object_id, {})
        writers = []
        total = 0
        metadata = 0.0
        for writer in vector.writers():
            count = vector.count(writer)
            total += count
            pair = summaries.get(writer)
            if pair is None or pair[1].count != count:
                if (pair is not None
                        and vector.base_count(writer) <= pair[1].count < count):
                    # Per-writer records are append-only in seq order (and a
                    # checkpoint only folds records the cache already
                    # summarised); fold only the unseen suffix of the tail.
                    folded = pair[1].fold(
                        vector.updates_above(writer, pair[1].count))
                else:
                    # Cold rebuild: fold the tail onto the writer's base
                    # (the empty base when untruncated) — bit-identical to
                    # folding the full record history.
                    base = vector.writer_base(writer) or WriterBase.EMPTY
                    folded = base.fold(vector.updates_from(writer))
                # either fold's count is ``count`` by the vector's invariant
                pair = summaries[writer] = (writer, folded)
            writers.append(pair)
            metadata += pair[1].cum_metadata
        return VersionDigest(object_id, replica.node_id, now, tuple(writers),
                             metadata, vector.last_consistent_time,
                             total)

    @property
    def hit_rate(self) -> Optional[float]:
        total = self.hits + self.misses
        return None if total == 0 else self.hits / total
