"""Update log kept by each replica, in checkpoint ⊕ tail layout.

The log records every :class:`~repro.versioning.extended_vector.UpdateRecord`
applied to the replica, in application order.  It supports the operations the
protocols need:

* appending local writes and remote updates idempotently,
* extracting the updates missing from a peer (for resolution pushes),
* tombstoning updates invalidated by the *invalidate-both* resolution policy
  (Section 4.5.1), and
* replaying the surviving updates to rebuild application state after a
  rollback (Section 4.4.2).

The derived views the hot path consumes — key set, live-entry list, live
metadata sum — are maintained incrementally: appends extend them in O(1),
and the rare death of an entry (invalidation / rollback) adjusts the
metadata sum directly and marks the live-entry cache dirty so the next query
rebuilds it once.  No query rebuilds state per call.

Long runs bound the log with a **checkpoint**: a stable prefix of each
writer's updates (updates below the stability frontier — known-received by
every replica) folds into a :class:`LogCheckpoint` holding per-writer
counts, the live metadata sum, and the live payloads, after which the
records themselves are dropped.  Every query answers over ``checkpoint ⊕
tail``; operations that would need a folded record (rolling back past the
checkpoint) raise :class:`~repro.versioning.extended_vector
.TruncatedHistoryError`, and mutations aimed below the checkpoint are
counted rather than silently ignored.

Anti-entropy is served from the **seq-contiguous per-writer index**: given a
peer's per-writer counts, the missing records are per-writer tail slices, so
an exchange costs O(missing), not O(log).  The same index underpins
truncation, and the monotone applied-at array serves ``applied_since`` by
bisection.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import merge as _heap_merge
from typing import Any, Dict, Iterable, KeysView, List, Optional, Set, Tuple, Union

from repro.versioning.extended_vector import TruncatedHistoryError, UpdateRecord
from repro.versioning.version_vector import VersionVector


@dataclass(slots=True)
class LogEntry:
    """One applied update plus bookkeeping flags."""

    record: UpdateRecord
    applied_at: float
    invalidated: bool = False
    rolled_back: bool = False

    @property
    def live(self) -> bool:
        return not self.invalidated and not self.rolled_back


@dataclass
class LogCheckpoint:
    """Folded stable prefix of the log (see module docstring).

    ``content_chunks`` holds the live folded payloads as a list of chunks,
    each internally sorted by ``(timestamp, writer, seq)``; full-content
    reads merge the chunks lazily so a truncation never re-sorts what
    earlier truncations already folded.
    """

    #: per-writer folded applied count (live and dead records alike)
    counts: Dict[str, int] = field(default_factory=dict)
    #: total folded entries / the live subset among them
    entries_folded: int = 0
    live_folded: int = 0
    #: live folded metadata sum
    metadata: float = 0.0
    #: sorted chunks of (timestamp, writer, seq, payload) for live records
    content_chunks: List[List[Tuple[float, str, int, Any]]] = field(default_factory=list)
    #: True once a truncation discarded folded payloads (``keep_content=
    #: False``): content reads must fail loudly instead of returning a
    #: silently incomplete list
    content_dropped: bool = False
    #: latest applied_at among folded entries (guards rollback/applied_since)
    applied_through: float = float("-inf")

    def count(self, writer: str) -> int:
        return self.counts.get(writer, 0)

    def content_items(self) -> List[Tuple[float, str, int, Any]]:
        """All live folded payload items, merged into sort order."""
        if not self.content_chunks:
            return []
        if len(self.content_chunks) == 1:
            return list(self.content_chunks[0])
        merged = list(_heap_merge(*self.content_chunks))
        # Collapse to one chunk so repeated reads stop re-merging.
        self.content_chunks[:] = [merged]
        return list(merged)


class UpdateLog:
    """Ordered, idempotent log of updates applied to one replica."""

    def __init__(self) -> None:
        self.checkpoint = LogCheckpoint()
        self._entries: List[LogEntry] = []
        self._index: Dict[Tuple[str, int], LogEntry] = {}
        #: retained entries per writer, in seq order while histories are
        #: contiguous (the protocol invariant); the anti-entropy fast path
        #: and truncation both key off this index
        self._by_writer: Dict[str, List[LogEntry]] = {}
        #: applied_at of each retained entry, parallel to ``_entries``
        self._applied_times: List[float] = []
        #: appends kept per-writer seqs contiguous and applied_at monotone;
        #: when a test (or misbehaving caller) violates either, the affected
        #: fast path falls back to a linear scan
        self._seq_contiguous = True
        self._applied_monotone = True
        #: live entries in application order; None when dirty (an entry died
        #: since the cache was built) — rebuilt lazily on the next query
        self._live_entries: Optional[List[LogEntry]] = []
        #: running sum of metadata deltas over live *retained* entries
        self._live_metadata = 0.0
        #: count of dead retained entries, so ``entries()`` can skip
        #: filtering when everything is live (the common hot-path case)
        self._dead = 0
        #: mutations aimed below the checkpoint (counted, per the stability
        #: invariant they can only concern already-stable records)
        self.invalidated_below_checkpoint = 0

    def __len__(self) -> int:
        """Total updates ever applied (folded prefix + retained tail)."""
        return self.checkpoint.entries_folded + len(self._entries)

    def retained_count(self) -> int:
        """Entries currently held as records (the bench's live-log gauge)."""
        return len(self._entries)

    def __contains__(self, key: Tuple[str, int]) -> bool:
        if key in self._index:
            return True
        writer, seq = key
        return 1 <= seq <= self.checkpoint.count(writer)

    # -------------------------------------------------------------- appends
    def append(self, record: UpdateRecord, applied_at: float) -> bool:
        """Append a record; returns False if it was already present."""
        key = (record.writer, record.seq)
        if key in self._index:
            return False
        checkpoint_count = self.checkpoint.count(record.writer)
        if 1 <= record.seq <= checkpoint_count:
            return False  # folded into the checkpoint long ago
        entry = LogEntry(record, applied_at)
        self._index[key] = entry
        tail = self._by_writer.get(record.writer)
        if tail is None:
            tail = self._by_writer[record.writer] = []
        if record.seq != checkpoint_count + len(tail) + 1:
            self._seq_contiguous = False
        tail.append(entry)
        if self._applied_times and applied_at < self._applied_times[-1]:
            self._applied_monotone = False
        self._applied_times.append(applied_at)
        self._entries.append(entry)
        if self._live_entries is not None:
            self._live_entries.append(entry)
        self._live_metadata += record.metadata_delta
        return True

    def extend(self, records: Iterable[UpdateRecord], applied_at: float) -> int:
        """Append many records applied at one instant; returns how many were new.

        Leaves exactly what :meth:`append` per record would, with the
        application-order views extended once for the whole batch.
        """
        index = self._index
        by_writer = self._by_writer
        checkpoint_counts = self.checkpoint.counts
        fresh: List[LogEntry] = []
        for record in records:
            key = (record.writer, record.seq)
            if key in index:
                continue
            checkpoint_count = checkpoint_counts.get(record.writer, 0)
            if 1 <= record.seq <= checkpoint_count:
                continue  # folded into the checkpoint long ago
            entry = index[key] = LogEntry(record, applied_at)
            tail = by_writer.get(record.writer)
            if tail is None:
                tail = by_writer[record.writer] = []
            if record.seq != checkpoint_count + len(tail) + 1:
                self._seq_contiguous = False
            tail.append(entry)
            fresh.append(entry)
            self._live_metadata += record.metadata_delta
        if fresh:
            if self._applied_times and applied_at < self._applied_times[-1]:
                self._applied_monotone = False
            self._applied_times.extend([applied_at] * len(fresh))
            self._entries.extend(fresh)
            if self._live_entries is not None:
                self._live_entries.extend(fresh)
        return len(fresh)

    # --------------------------------------------------------- cache upkeep
    def _live_view(self) -> List[LogEntry]:
        """The incrementally maintained live-entry list (do not mutate)."""
        live = self._live_entries
        if live is None:
            live = self._live_entries = [e for e in self._entries if e.live]
        return live

    def _mark_dead(self, entry: LogEntry) -> None:
        """Bookkeeping for a live entry that was just tombstoned."""
        self._live_metadata -= entry.record.metadata_delta
        self._live_entries = None
        self._dead += 1

    # ------------------------------------------------------------- queries
    def entries(self, include_dead: bool = False) -> List[LogEntry]:
        """Retained entries in application order (folded ones are gone)."""
        if include_dead:
            return list(self._entries)
        if self._dead == 0:
            return list(self._entries)
        return list(self._live_view())

    def records(self, include_dead: bool = False) -> List[UpdateRecord]:
        return [e.record for e in self.entries(include_dead=include_dead)]

    def record_keys(self) -> KeysView[Tuple[str, int]]:
        """All retained update keys, live or dead.

        Returns the index's key view — a set-like, O(1)-membership object
        maintained incrementally by :meth:`append`.  Treat it as read-only;
        copy with ``set(...)`` if a mutable set is needed.
        """
        return self._index.keys()

    def get(self, key: Tuple[str, int]) -> Optional[LogEntry]:
        return self._index.get(key)

    def missing_from(self, known: Union[Set[Tuple[str, int]], VersionVector]
                     ) -> List[UpdateRecord]:
        """Live records present here that the peer lacks.

        With a :class:`VersionVector` of the peer's per-writer counts (the
        anti-entropy digest) this is served from the seq-contiguous
        per-writer index in O(missing): the peer lacks exactly each writer's
        records above its count, which is a tail slice.  A key-*set* falls
        back to the legacy full scan (kept for callers without the
        contiguity guarantee).  Raises :class:`TruncatedHistoryError` when
        the peer is behind the checkpoint — those records were folded and
        cannot be shipped individually.
        """
        if isinstance(known, VersionVector):
            # A peer behind the checkpoint of ANY writer — including one
            # whose retained tail is empty because everything folded — needs
            # records that no longer exist; fail loudly, never silently
            # under-serve an anti-entropy exchange.
            for writer, base in self.checkpoint.counts.items():
                have = known.count(writer)
                if have < base:
                    raise TruncatedHistoryError(
                        f"peer knows {have} updates of writer {writer!r} "
                        f"but seqs 1..{base} were folded into the "
                        f"checkpoint")
            if self._seq_contiguous:
                missing: List[UpdateRecord] = []
                checkpoint = self.checkpoint
                for writer, tail in self._by_writer.items():
                    have = known.count(writer)
                    base = checkpoint.count(writer)
                    if have >= base + len(tail):
                        continue
                    for entry in tail[max(0, have - base):]:
                        if entry.live:
                            missing.append(entry.record)
                return missing
            # Sparse per-writer histories (test-only): per-entry count check.
            entries = self._entries if self._dead == 0 else self._live_view()
            return [e.record for e in entries
                    if e.record.seq > known.count(e.record.writer)]
        if self.checkpoint.entries_folded:
            # Key-set path: a contiguous peer that held a writer's whole
            # folded prefix must know its highest folded key.
            for writer, base in self.checkpoint.counts.items():
                if (writer, base) not in known:
                    raise TruncatedHistoryError(
                        f"peer does not know ({writer!r}, {base}) although "
                        f"seqs 1..{base} were folded into the checkpoint")
        entries = self._entries if self._dead == 0 else self._live_view()
        return [e.record for e in entries
                if (e.record.writer, e.record.seq) not in known]

    def applied_since(self, time: float) -> List[LogEntry]:
        """Entries applied strictly after ``time`` (rollback candidates).

        Served by bisection over the monotone applied-at array; raises
        :class:`TruncatedHistoryError` when folded entries would qualify.
        """
        if self.checkpoint.entries_folded and time < self.checkpoint.applied_through:
            raise TruncatedHistoryError(
                f"entries applied after {time:g} include records folded into "
                f"the checkpoint (applied through "
                f"{self.checkpoint.applied_through:g})")
        if self._applied_monotone:
            start = bisect_right(self._applied_times, time)
            return self._entries[start:]
        return [e for e in self._entries if e.applied_at > time]

    def last_applied_at(self) -> float:
        """When the replica last applied a live update (0.0 if it never did).

        The last live retained entry while appends stay monotone, floored by
        the checkpoint's fold horizon — so a truncated log answers like an
        untruncated one — and never a copy of the log.
        """
        entries = self._entries if self._dead == 0 else self._live_view()
        if not entries:
            last = 0.0
        elif self._applied_monotone:
            last = entries[-1].applied_at
        else:
            last = max(e.applied_at for e in entries)
        through = self.checkpoint.applied_through
        return last if last >= through else through

    def live_content(self) -> List[Any]:
        """Live payloads in ``(timestamp, writer, seq)`` order.

        Checkpointed payloads come pre-sorted from the checkpoint chunks and
        are merged with the sorted retained tail.
        """
        if self.checkpoint.content_dropped:
            raise TruncatedHistoryError(
                "folded payloads were discarded by a keep_content=False "
                "truncation; this replica can no longer serve full-content "
                "reads")
        entries = self._entries if self._dead == 0 else self._live_view()
        tail = sorted((e.record.timestamp, e.record.writer, e.record.seq,
                       e.record.payload) for e in entries)
        if not self.checkpoint.content_chunks:
            return [item[3] for item in tail]
        folded = self.checkpoint.content_items()
        return [item[3] for item in _heap_merge(folded, tail)]

    def live_metadata(self) -> float:
        """Sum of metadata deltas over live updates (maintained incrementally)."""
        return self.checkpoint.metadata + self._live_metadata

    # ------------------------------------------------------------ mutation
    def invalidate(self, keys: Iterable[Tuple[str, int]]) -> int:
        """Tombstone the given updates (invalidate-both policy); returns count.

        Keys that fell below the checkpoint are counted in
        :attr:`invalidated_below_checkpoint` instead of silently ignored —
        by the stability invariant they were known everywhere, so a policy
        naming them indicates the frontier ran ahead of resolution.
        """
        count = 0
        for key in keys:
            entry = self._index.get(key)
            if entry is None:
                writer, seq = key
                if 1 <= seq <= self.checkpoint.count(writer):
                    self.invalidated_below_checkpoint += 1
                continue
            if not entry.invalidated:
                was_live = entry.live
                entry.invalidated = True
                if was_live:
                    self._mark_dead(entry)
                count += 1
        return count

    def roll_back_after(self, time: float) -> List[UpdateRecord]:
        """Mark all updates applied after ``time`` as rolled back.

        Returns the affected records so the caller can notify the user
        (the paper handles rollback "in the background and return[s] the
        result to the users afterwards").  Rolling back past the checkpoint
        raises :class:`TruncatedHistoryError`: folded records are stable by
        construction and can no longer be individually un-applied.
        """
        try:
            candidates = self.applied_since(time)
        except TruncatedHistoryError as exc:
            # Same below-checkpoint condition, rollback-specific guidance.
            raise TruncatedHistoryError(
                f"cannot roll back to {time:g}: updates applied through "
                f"{self.checkpoint.applied_through:g} were folded into the "
                f"checkpoint; keep the truncation window wider than the "
                f"rollback horizon") from exc
        rolled: List[UpdateRecord] = []
        for entry in candidates:
            if not entry.rolled_back:
                was_live = entry.live
                entry.rolled_back = True
                if was_live:
                    self._mark_dead(entry)
                rolled.append(entry.record)
        return rolled

    # ---------------------------------------------------------- truncation
    def truncate(self, frontier: Dict[str, int], *,
                 keep_after: Optional[float] = None,
                 keep_content: bool = True) -> int:
        """Fold each writer's stable prefix (seqs ≤ ``frontier[writer]``).

        ``keep_after`` additionally pins entries applied after that time —
        the *instability window* — so recent history stays available for
        rollback regardless of stability.  Folding always takes a per-writer
        prefix; the first entry that is too new (or beyond the frontier)
        stops that writer's fold.  Returns the number of entries folded.

        ``keep_content=False`` discards the folded payloads instead of
        keeping them in the checkpoint — for metadata-only workloads whose
        content lives elsewhere (or nowhere), so memory stays flat in run
        length.  Subsequent full-content reads raise
        :class:`TruncatedHistoryError`.
        """
        if not self._seq_contiguous or not frontier:
            return 0
        checkpoint = self.checkpoint
        live_before = checkpoint.live_folded
        folded: List[LogEntry] = []
        content: List[Tuple[float, str, int, Any]] = []
        for writer, target in frontier.items():
            tail = self._by_writer.get(writer)
            if not tail:
                continue
            base = checkpoint.count(writer)
            fold_n = 0
            for entry in tail:
                if entry.record.seq > target:
                    break
                if keep_after is not None and entry.applied_at > keep_after:
                    break
                fold_n += 1
            if fold_n == 0:
                continue
            for entry in tail[:fold_n]:
                record = entry.record
                del self._index[(record.writer, record.seq)]
                folded.append(entry)
                if entry.live:
                    checkpoint.live_folded += 1
                    checkpoint.metadata += record.metadata_delta
                    self._live_metadata -= record.metadata_delta
                    if keep_content:
                        content.append((record.timestamp, record.writer,
                                        record.seq, record.payload))
                else:
                    self._dead -= 1
                if entry.applied_at > checkpoint.applied_through:
                    checkpoint.applied_through = entry.applied_at
            del tail[:fold_n]
            if not tail:
                del self._by_writer[writer]
            checkpoint.counts[writer] = base + fold_n
        if not folded:
            return 0
        checkpoint.entries_folded += len(folded)
        if not keep_content and checkpoint.live_folded > live_before:
            checkpoint.content_dropped = True
        if content:
            content.sort()
            checkpoint.content_chunks.append(content)
        folded_ids = {id(e) for e in folded}
        self._entries = [e for e in self._entries if id(e) not in folded_ids]
        self._applied_times = [e.applied_at for e in self._entries]
        self._live_entries = None
        return len(folded)
