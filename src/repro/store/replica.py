"""Per-node replica of a shared object.

A :class:`Replica` holds each applied update once, in its current
:class:`~repro.versioning.extended_vector.ExtendedVersionVector`: per writer
a checkpoint (the folded stable prefix) and a retained tail of records
(DESIGN.md §9).  Beside the vector it keeps only what the vector does not
know:

* per writer, the applied-at stamp of each retained record, index-aligned
  with the vector's tail — they answer :meth:`Replica.last_applied_at` and
  let a truncation keep records applied after a window;
* the tombstoned ``(writer, seq)`` keys of the *invalidate-both* policy
  (Section 4.5.1), which leave content reads and pushes;
* the folded live payloads as sorted chunks, so a truncated replica reads
  the same content as an untruncated one.

The consistency level the user perceives (Figures 7, 8 and 10 of the paper)
is always computed from a replica's extended vector compared against a
reference state.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import merge as _heap_merge
from itertools import groupby
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.versioning.extended_vector import (
    ExtendedVersionVector,
    TruncatedHistoryError,
    UpdateRecord,
    VectorDelta,
)
from repro.versioning.version_vector import VersionVector

_writer = attrgetter("writer")
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


class Replica:
    """One node's copy of one shared object."""

    def __init__(self, node_id: str, object_id: str) -> None:
        self.node_id = node_id
        self.object_id = object_id
        self._vector = ExtendedVersionVector()
        #: per writer, the applied-at stamps of its retained records, in seq
        #: order; a writer whose tail folds away leaves and re-enters at its
        #: next apply, as in the vector
        self._stamps: Dict[str, List[float]] = {}
        #: every stamp so far was >= the one before; while it holds, stamp
        #: lists are sorted and the ``keep_after`` cut bisects them
        self._monotone = True
        self._last_stamp = float("-inf")
        #: tombstoned retained keys (invalidate-both); folding lets them go
        self._dead: Set[Tuple[str, int]] = set()
        #: live folded payloads, chunks of (timestamp, writer, seq, payload)
        #: each sorted; content reads merge them lazily
        self._folded_content: List[List[Tuple[float, str, int, Any]]] = []
        #: a ``keep_content=False`` truncation dropped live payloads
        self._content_dropped = False
        #: latest applied-at among folded records (floors ``last_applied_at``)
        self.applied_through = float("-inf")
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

    def known_update_keys(self) -> Set[Tuple[str, int]]:
        return self._vector.update_keys()

    def content(self) -> List[Any]:
        """Application payloads of live updates, in timestamp order.

        Served over ``checkpoint ⊕ tail``: folded payloads come pre-sorted
        from the chunks truncation kept and merge with the retained records,
        so a truncated replica reads identically to an untruncated one.
        """
        if self._content_dropped:
            raise TruncatedHistoryError(
                "folded payloads were discarded by a keep_content=False "
                "truncation; this replica can no longer serve full-content "
                "reads")
        records = self._vector.all_updates()
        dead = self._dead
        if dead:
            records = [r for r in records if (r.writer, r.seq) not in dead]
        chunks = self._folded_content
        if not chunks:
            return [r.payload for r in records]
        if len(chunks) > 1:
            # Collapse to one chunk so repeated reads stop re-merging.
            chunks[:] = [list(_heap_merge(*chunks))]
        tail = [(r.timestamp, r.writer, r.seq, r.payload) for r in records]
        return [item[3] for item in _heap_merge(chunks[0], tail)]

    def last_applied_at(self) -> float:
        """When the replica last applied a live update (0.0 if it never did).

        The latest live retained stamp (each writer's last while all are live
        and monotone), floored by the fold horizon so a truncated replica
        answers like an untruncated one.
        """
        if self._monotone and not self._dead:
            last = max((stamps[-1] for stamps in self._stamps.values()),
                       default=0.0)
        else:
            dead, vector = self._dead, self._vector
            last = max((stamp for writer, stamps in self._stamps.items()
                        for seq, stamp in enumerate(
                            stamps, vector.base_count(writer) + 1)
                        if (writer, seq) not in dead), default=0.0)
        through = self.applied_through
        return last if last >= through else through

    def missing_from(self, counts: VersionVector) -> List[UpdateRecord]:
        """Live records held here above a peer's per-writer ``counts``, in
        ``(writer, seq)`` order (an anti-entropy answer).

        Raises :class:`TruncatedHistoryError` when the peer is behind the
        checkpoint: the records it lacks were folded.
        """
        missing = self._vector.missing_from(counts)
        dead = self._dead
        if dead:
            missing = [r for r in missing if (r.writer, r.seq) not in dead]
        return missing

    def retained_log_entries(self) -> int:
        """Records currently held in memory (bounded by the window)."""
        return sum(map(len, self._stamps.values()))

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
        # new by construction: straight to ``apply``, without
        # :meth:`apply_update`'s duplicate guard.
        vector = self._vector
        record = UpdateRecord(writer, vector.count(writer) + 1, timestamp,
                              metadata_delta, payload)
        self._vector = vector.apply(record)
        if applied_at is None:
            applied_at = timestamp
        stamps = self._stamps.get(writer)
        if stamps is None:
            self._stamps[writer] = [applied_at]
        else:
            stamps.append(applied_at)
        if applied_at < self._last_stamp:
            self._monotone = False
        self._last_stamp = applied_at
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
        writer = record.writer
        if 1 <= record.seq <= self._vector.count(writer):
            return False
        self._vector = self._vector.apply(record)
        stamps = self._stamps.get(writer)
        if stamps is None:
            self._stamps[writer] = [applied_at]
        else:
            stamps.append(applied_at)
        if applied_at < self._last_stamp:
            self._monotone = False
        self._last_stamp = applied_at
        self.revision += 1
        return True

    def apply_updates(self, records: List[UpdateRecord], applied_at: float) -> int:
        """Apply many updates as one step; returns how many were new.

        The records are taken per writer in seq order, each writer's history
        is extended once, and :attr:`revision` advances by the number applied
        — what a fold of :meth:`apply_update` over them leaves behind.  A
        batch with a per-writer gap raises before anything changes.
        """
        vector, applied = self._vector.apply_many(
            sorted(records, key=_writer_seq))
        # ``applied`` keeps the sorted order: one run of records per writer
        return self._adopt(vector, [(writer, len(list(run))) for writer, run
                                    in groupby(applied, _writer)], applied_at)

    def _adopt(self, vector: ExtendedVersionVector,
               gained: List[Tuple[str, int]], applied_at: float) -> int:
        """Take ``vector``, which holds per ``(writer, n)`` of ``gained``
        that writer's ``n`` records more, all applied at ``applied_at``;
        returns how many records that is."""
        if not gained:
            return 0
        self._vector = vector
        stamps_of = self._stamps
        for writer, n in gained:
            stamps = stamps_of.get(writer)
            if stamps is None:
                stamps_of[writer] = [applied_at] * n
            else:
                stamps += [applied_at] * n
        if applied_at < self._last_stamp:
            self._monotone = False
        self._last_stamp = applied_at
        applied = sum(n for _, n in gained)
        self.revision += applied
        return applied

    # ----------------------------------------------------- resolution hooks
    def block_writes(self) -> None:
        self.write_blocked = True

    def unblock_writes(self) -> None:
        self.write_blocked = False

    def mark_consistent(self, time: float) -> None:
        """Record that the replica was brought to a consistent state at ``time``."""
        self._vector = self._vector.with_consistent_time(time)
        self.revision += 1

    def install_merged(self, merged: VectorDelta, *, now: float) -> int:
        """Install the resolved consistent image: apply every missing update.

        ``merged`` is the image's delta above a floor this replica holds
        (DESIGN.md §2.6); the records above the replica's own counts are
        applied in ``(writer, seq)`` order.  Returns the number of updates
        pulled in.  The replica's own extra updates (if any) are kept — the
        merged image by construction contains them, so vectors converge.
        The install is all-or-nothing: if this replica is below a floor
        (behind the pushing initiator's checkpoint) it raises with the
        vector and :attr:`revision` untouched, counted: the records it needs
        no longer exist anywhere (conservative frontier policies make this
        unreachable; see ``DetectionService.stability_frontier``).
        """
        try:
            vector, gained = merged.installed_on(self._vector)
        except TruncatedHistoryError:
            self.truncation_stats.installs_behind_checkpoint += 1
            raise
        applied = self._adopt(vector, gained, now)
        self.mark_consistent(now)
        if self.journal is not None:
            self.journal("install", self.object_id, merged, now)
        return applied

    def invalidate_updates(self, keys: List[Tuple[str, int]]) -> int:
        """Tombstone updates chosen by the invalidate-both policy; returns
        how many were newly tombstoned.

        Keys that fell below the checkpoint are reported through
        :attr:`truncation_stats` rather than silently ignored: they were
        known everywhere, so a policy naming them means the frontier ran
        ahead of resolution.
        """
        self.revision += 1
        if self.journal is not None:
            self.journal("invalidate", self.object_id, list(keys))
        vector, dead = self._vector, self._dead
        count = below = 0
        for writer, seq in keys:
            base = vector.base_count(writer)
            if base < seq <= vector.count(writer):
                if (writer, seq) not in dead:
                    dead.add((writer, seq))
                    count += 1
            elif 1 <= seq <= base:
                below += 1
        if below:
            self.truncation_stats.invalidate_below_checkpoint += below
        return count

    # ------------------------------------------------------------ truncation
    def truncate_stable(self, frontier: Union[VersionVector, Mapping[str, int]],
                        *, keep_after: Optional[float] = None,
                        keep_content: bool = True) -> int:
        """Fold the stable prefix below ``frontier`` into the checkpoint.

        ``frontier`` is the per-writer stability frontier (updates known by
        every replica); ``keep_after`` also pins records applied after that
        time, stable or not: the first one too new (or beyond the frontier)
        stops a writer's fold.  ``keep_content=False`` drops the folded
        payloads instead of keeping them (metadata-only workloads: memory
        stays flat in run length); full-content reads then raise
        :class:`TruncatedHistoryError`.  Returns the number of records
        folded.
        """
        counts = (frontier.as_dict() if isinstance(frontier, VersionVector)
                  else dict(frontier))
        vector, stamps_of, dead = self._vector, self._stamps, self._dead
        bases = vector.bases()
        folds: Dict[str, int] = {}
        folded = live_folded = 0
        content: List[Tuple[float, str, int, Any]] = []
        for writer, target in counts.items():
            stamps = stamps_of.get(writer)
            if stamps is None:
                continue
            base = bases[writer].count if writer in bases else 0
            fold_n = min(target - base, len(stamps))
            if fold_n > 0 and keep_after is not None:
                if self._monotone:
                    fold_n = bisect_right(stamps, keep_after, 0, fold_n)
                else:
                    fold_n = next((i for i in range(fold_n)
                                   if stamps[i] > keep_after), fold_n)
            if fold_n <= 0:
                continue
            top = base + fold_n
            gone = ({key for key in dead if key[0] == writer and key[1] <= top}
                    if dead else ())
            if gone:
                dead -= gone
            live_folded += fold_n - len(gone)
            if keep_content:
                content += [(r.timestamp, writer, r.seq, r.payload)
                            for r in vector.updates_through(writer, top)
                            if (writer, r.seq) not in gone]
            last = stamps[fold_n - 1] if self._monotone else max(stamps[:fold_n])
            if last > self.applied_through:
                self.applied_through = last
            del stamps[:fold_n]
            if not stamps:
                del stamps_of[writer]
            folds[writer] = top
            folded += fold_n
        if not folded:
            return 0
        self._vector = vector.truncate_to(folds)
        if not keep_content and live_folded:
            self._content_dropped = True
        if content:
            content.sort()
            self._folded_content.append(content)
        self.revision += 1
        self.truncation_stats.truncations += 1
        self.truncation_stats.entries_folded += folded
        if self.journal is not None:
            self.journal("truncate", self.object_id, counts, keep_after,
                         keep_content)
        return folded

    # -------------------------------------------------------------- dunder
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Replica {self.object_id}@{self.node_id} "
                f"updates={self._vector.total_updates()} meta={self.metadata:g}>")
