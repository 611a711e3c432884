"""Per-node replica of a shared object.

A :class:`Replica` couples three things that must stay in step:

* the :class:`~repro.store.update_log.UpdateLog` of applied updates,
* the current :class:`~repro.versioning.extended_vector.ExtendedVersionVector`,
* per-writer sequence counters for locally issued writes.

The consistency level the user perceives (Figures 7, 8 and 10 of the paper)
is always computed from a replica's extended vector compared against a
reference state, so keeping vector and log consistent is the core invariant
of this module (checked by property tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, List, Mapping, Optional, Set, Tuple, Union

from repro.store.update_log import UpdateLog
from repro.versioning.extended_vector import (
    ExtendedVersionVector,
    TruncatedHistoryError,
    UpdateRecord,
)
from repro.versioning.version_vector import VersionVector

_writer_seq = attrgetter("writer", "seq")


@dataclass
class TruncationStats:
    """NetworkStats-style counters for checkpoint/truncation events.

    ``invalidate_below_checkpoint`` reports how many invalidations aimed
    below the stability frontier, which truncation already folded.
    """

    truncations: int = 0
    entries_folded: int = 0
    invalidate_below_checkpoint: int = 0
    #: installs that could not complete because this replica fell behind the
    #: pushing initiator's checkpoint (repaired only by a wider window)
    installs_behind_checkpoint: int = 0


@dataclass(frozen=True)
class ReplicaSnapshot:
    """A point-in-time view of a replica handed to detection/resolution."""

    node_id: str
    object_id: str
    vector: ExtendedVersionVector
    taken_at: float

    @property
    def counts(self) -> VersionVector:
        return self.vector.counts()


class Replica:
    """One node's copy of one shared object."""

    def __init__(self, node_id: str, object_id: str, *,
                 initial_consistent_time: float = 0.0) -> None:
        self.node_id = node_id
        self.object_id = object_id
        self.log = UpdateLog()
        self._vector = ExtendedVersionVector(
            last_consistent_time=initial_consistent_time)
        #: number of updates blocked because a resolution was in progress
        self.blocked_writes = 0
        #: whether writes are currently blocked (during a resolution round)
        self.write_blocked = False
        #: monotonically increasing mutation counter; bumped on every change
        #: to the vector, so digest caches can key on it
        self.revision = 0
        #: checkpoint/truncation accounting (see :class:`TruncationStats`)
        self.truncation_stats = TruncationStats()
        #: ``journal(kind, object_id, *args)``, told each change a restarted
        #: live node replays (DESIGN.md §15); None on the simulator
        self.journal: Optional[Callable[..., None]] = None

    # -------------------------------------------------------------- access
    @property
    def vector(self) -> ExtendedVersionVector:
        return self._vector

    @property
    def metadata(self) -> float:
        return self._vector.metadata

    def snapshot(self, now: float) -> ReplicaSnapshot:
        return ReplicaSnapshot(node_id=self.node_id, object_id=self.object_id,
                               vector=self._vector, taken_at=now)

    def known_update_keys(self) -> Set[Tuple[str, int]]:
        return self._vector.update_keys()

    def content(self) -> List[Any]:
        """Application payloads of live updates, in timestamp order.

        Served over ``checkpoint ⊕ tail``: folded payloads come pre-sorted
        from the log checkpoint and merge with the retained records, so a
        truncated replica reads identically to an untruncated one.
        """
        return self.log.live_content()

    # -------------------------------------------------------------- writes
    def next_seq(self, writer: str) -> int:
        """Sequence number the next local write by ``writer`` should carry."""
        return self._vector.count(writer) + 1

    def local_write(self, writer: str, timestamp: float, *,
                    metadata_delta: float = 0.0, payload: Any = None,
                    applied_at: Optional[float] = None) -> Optional[UpdateRecord]:
        """Issue a local write.

        Returns the created record, or ``None`` when writes are blocked
        because a resolution round is in progress (the paper blocks updates
        during resolution "to prevent invalid updates that [are] based on an
        inconsistent copy").
        """
        if self.write_blocked:
            self.blocked_writes += 1
            if self.journal is not None:
                self.journal("blocked", self.object_id)
            return None
        # The seq is minted from the vector's own count, so the record is
        # new by construction: straight to ``apply`` and ``append``, without
        # :meth:`apply_update`'s duplicate guard.
        vector = self._vector
        record = UpdateRecord(writer, vector.count(writer) + 1, timestamp,
                              metadata_delta, payload)
        self._vector = vector.apply(record)
        if applied_at is None:
            applied_at = timestamp
        self.log.append(record, applied_at=applied_at)
        self.revision += 1
        if self.journal is not None:
            self.journal("write", self.object_id, record, applied_at)
        return record

    def apply_update(self, record: UpdateRecord, applied_at: float) -> bool:
        """Apply a (local or remote) update idempotently.

        Returns True when the update was new.  Remote updates must arrive in
        per-writer sequence order; resolution pushes satisfy this because the
        initiator sends each writer's missing updates sorted by sequence.
        """
        # Per-writer seqs are contiguous from 1, so "already applied" is
        # exactly "seq not beyond the writer's current count" — an O(1)
        # check instead of materialising the full update-key set.
        if 1 <= record.seq <= self._vector.count(record.writer):
            return False
        self._vector = self._vector.apply(record)
        self.log.append(record, applied_at=applied_at)
        self.revision += 1
        return True

    def apply_updates(self, records: List[UpdateRecord], applied_at: float) -> int:
        """Apply many updates as one step; returns how many were new.

        The records are taken per writer in seq order, each writer's history
        is extended once, and :attr:`revision` advances by the number applied
        — what a fold of :meth:`apply_update` over them leaves behind.  A
        batch with a per-writer gap raises before anything changes.
        """
        vector, applied = self._vector.apply_many(sorted(records, key=_writer_seq))
        if applied:
            self._vector = vector
            self.log.extend(applied, applied_at=applied_at)
            self.revision += len(applied)
        return len(applied)

    # ----------------------------------------------------- resolution hooks
    def block_writes(self) -> None:
        self.write_blocked = True

    def unblock_writes(self) -> None:
        self.write_blocked = False

    def mark_consistent(self, time: float) -> None:
        """Record that the replica was brought to a consistent state at ``time``."""
        self._vector = self._vector.with_consistent_time(time)
        self.revision += 1

    def install_merged(self, merged: ExtendedVersionVector, *, now: float) -> int:
        """Install the resolved consistent image: apply every missing update.

        Returns the number of updates pulled in.  The replica's own extra
        updates (if any) are kept — the merged image by construction contains
        them, so vectors converge.  The install is all-or-nothing: an image
        this replica cannot extend contiguously raises with vector, log and
        :attr:`revision` untouched.  If this replica fell behind the pushing
        initiator's checkpoint the install is counted and re-raised: the
        records it needs no longer exist anywhere (conservative frontier
        policies make this unreachable; see ``DetectionService
        .stability_frontier``).
        """
        try:
            missing = merged.missing_from(self._vector)
        except TruncatedHistoryError:
            self.truncation_stats.installs_behind_checkpoint += 1
            raise
        applied = self.apply_updates(missing, applied_at=now)
        self.mark_consistent(now)
        if self.journal is not None:
            self.journal("install", self.object_id, merged, now)
        return applied

    def invalidate_updates(self, keys: List[Tuple[str, int]]) -> int:
        """Tombstone updates chosen by the invalidate-both policy.

        Keys that fell below the checkpoint are reported through
        :attr:`truncation_stats` rather than silently ignored.
        """
        self.revision += 1
        if self.journal is not None:
            self.journal("invalidate", self.object_id, list(keys))
        before = self.log.invalidated_below_checkpoint
        count = self.log.invalidate(keys)
        skipped = self.log.invalidated_below_checkpoint - before
        if skipped:
            self.truncation_stats.invalidate_below_checkpoint += skipped
        return count

    # ------------------------------------------------------------ truncation
    def truncate_stable(self, frontier: Union[VersionVector, Mapping[str, int]],
                        *, keep_after: Optional[float] = None,
                        keep_content: bool = True) -> int:
        """Fold the stable prefix below ``frontier`` into the checkpoint.

        ``frontier`` is the per-writer stability frontier (updates known by
        every replica); ``keep_after`` pins entries applied after that time
        regardless.  Log and vector are truncated to the *same*
        per-writer counts (the log decides, since it also honours
        ``keep_after``), preserving the core log/vector invariant.  Returns
        the number of entries folded.
        """
        counts = (frontier.as_dict() if isinstance(frontier, VersionVector)
                  else dict(frontier))
        folded = self.log.truncate(counts, keep_after=keep_after,
                                   keep_content=keep_content)
        if folded:
            self._vector = self._vector.truncate_to(self.log.checkpoint.counts)
            self.revision += 1
            self.truncation_stats.truncations += 1
            self.truncation_stats.entries_folded += folded
            if self.journal is not None:
                self.journal("truncate", self.object_id, counts, keep_after,
                             keep_content)
        return folded

    def retained_log_entries(self) -> int:
        """Records currently held in memory (bounded by the window)."""
        return self.log.retained_count()

    # -------------------------------------------------------------- dunder
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Replica {self.object_id}@{self.node_id} "
                f"updates={self._vector.total_updates()} meta={self.metadata:g}>")
