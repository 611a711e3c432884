"""Shared per-node detection digest cache.

A node hosting hundreds of IDEA-managed objects evaluates consistency levels
constantly: every local write *and* every digest received from a top-layer
peer recomputes the local replica's :class:`~repro.core.detection
.VersionDigest`, which costs O(updates applied so far).  The seed
architecture paid that cost on every evaluation; at 256 objects per node the
digest rebuild dominated the whole simulation.

:class:`DigestCache` is owned by the :class:`~repro.runtime.NodeRuntime` and
shared by every object's detection service on that node.  It memoises the
local digest keyed by the replica's mutation ``revision`` — a digest is
rebuilt only when the replica actually changed — and it is the single home
for the peer-digest tables, so a crashed peer is dropped from every object's
table in one place (:meth:`DigestCache.forget_peer`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core.detection import VersionDigest, WriterSummary
from repro.store.replica import Replica
from repro.versioning.extended_vector import WriterBase


class DigestCache:
    """Node-level digest memoisation shared across all hosted objects."""

    __slots__ = ("_local", "_summaries", "_peers", "hits", "misses")

    def __init__(self) -> None:
        #: object_id -> (replica revision the digest was built from, digest)
        self._local: Dict[str, Tuple[int, VersionDigest]] = {}
        #: object_id -> {writer -> (count, cumulative metadata, last ts,
        #: interned (writer, WriterSummary) pair)}; per-writer folds reused
        #: across rebuilds (records are append-only), and the interned pair
        #: tuple means a rebuild after one write allocates one new summary —
        #: every unchanged writer's pair is recycled by reference
        self._summaries: Dict[str, Dict[str, Tuple[int, float, float, tuple]]] = {}
        #: object_id -> {peer node_id -> freshest digest received}
        self._peers: Dict[str, Dict[str, VersionDigest]] = {}
        #: local-digest lookups by outcome.  A caller that keeps the
        #: ``(revision, digest)`` of its last answer and finds the revision
        #: unchanged (``DetectionService._local_digest``) skips the call and
        #: counts the hit itself, so the rate means the same either way.
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------ local side
    def local_digest(self, object_id: str, replica: Replica,
                     now: float) -> VersionDigest:
        """The replica's digest, rebuilt only when the replica changed.

        Rebuilds are *incremental*: per-writer summaries are folded forward
        from the cached state, so a single new write costs O(1) instead of
        re-walking the whole update log.  A cache hit may carry a stale
        ``issued_at``; that field only matters when a digest is shipped to
        peers, and the announce path stamps the current time on a hit.
        """
        entry = self._local.get(object_id)
        if entry is not None and entry[0] == replica.revision:
            self.hits += 1
            return entry[1]
        self.misses += 1
        digest = self._rebuild(object_id, replica, now)
        self._local[object_id] = (replica.revision, digest)
        return digest

    def _rebuild(self, object_id: str, replica: Replica,
                 now: float) -> VersionDigest:
        vector = replica.vector
        summaries = self._summaries.setdefault(object_id, {})
        writers = []
        total = 0
        for writer in vector.writers():
            count = vector.count(writer)
            total += count
            cached = summaries.get(writer)
            if cached is not None and cached[0] == count:
                pair = cached[3]
            else:
                if (cached is not None
                        and vector.base_count(writer) <= cached[0] < count):
                    # Per-writer records are append-only in seq order (and a
                    # checkpoint only folds records the cache already
                    # summarised); fold only the unseen suffix of the tail.
                    seen, cum, last, _ = cached
                    for record in vector.updates_above(writer, seen):
                        cum += record.metadata_delta
                        if record.timestamp > last:
                            last = record.timestamp
                else:
                    # Cold rebuild: fold the tail onto the writer's base
                    # (the empty base when untruncated) — bit-identical to
                    # folding the full record history.
                    base = vector.writer_base(writer) or WriterBase.EMPTY
                    folded = base.fold(vector.updates_from(writer))
                    cum, last = folded.cum_metadata, folded.last_timestamp
                pair = (writer, WriterSummary(count, cum, last))
                summaries[writer] = (count, cum, last, pair)
            writers.append(pair)
        return VersionDigest(object_id, replica.node_id, now, tuple(writers),
                             vector.metadata, vector.last_consistent_time,
                             total)

    # ------------------------------------------------------------- peer side
    def peer_digests(self, object_id: str) -> Dict[str, VersionDigest]:
        """The live peer-digest table for one object (shared, not a copy)."""
        table = self._peers.get(object_id)
        if table is None:
            table = self._peers[object_id] = {}
        return table

    # ------------------------------------------------------------- lifecycle
    def forget_peer(self, node_id: str) -> None:
        """Evict a crashed peer's digests from every object's table.

        Tables are mutated in place — detection services hold live references
        to them — so the eviction is visible to every hosted object at once.
        Local writer summaries are *kept*: the dead peer's past updates are
        still in the local log and their folds remain valid.
        """
        for table in self._peers.values():
            table.pop(node_id, None)

    @property
    def hit_rate(self) -> Optional[float]:
        total = self.hits + self.misses
        return None if total == 0 else self.hits / total
