"""Update log kept by each replica, in checkpoint ⊕ tail layout.

The log records every :class:`~repro.versioning.extended_vector.UpdateRecord`
applied to the replica, in application order, for what the protocols need:
idempotent appends of local and remote updates, the updates a peer lacks
(resolution pushes) and tombstones for the *invalidate-both* policy (Section
4.5.1).

The log stores **columns, not entries**: per writer, the retained records in
seq order (from the checkpoint's count + 1), their applied-at stamps and an
application-order tick each — no Python object per record beyond the record
the vector already holds.  Seqs are contiguous (a gap raises, as
``ExtendedVersionVector.apply`` does), so membership and lookup are
arithmetic on the writer's count and a peer's missing records are column
slices, O(missing).  :class:`LogEntry` is built when read, merged into
application order by tick; only *dead* (invalidated) entries are held, keyed
by ``(writer, seq)``.  The live metadata sum is maintained
incrementally, and while stamps stay monotone the ``keep_after`` cut bisects.

Long runs bound the log with a **checkpoint**: a stable prefix of each
writer's updates (below the stability frontier — known-received by every
replica) folds into a :class:`LogCheckpoint` holding per-writer counts, the
live metadata sum and the live payloads; the records go with one slice
deletion per writer.  Every query answers over ``checkpoint ⊕ tail``;
queries that would need a folded record (a peer behind the checkpoint,
discarded payloads) raise :class:`~repro.versioning.extended_vector
.TruncatedHistoryError`, and invalidations aimed below the checkpoint are
counted rather than silently ignored.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import reduce
from heapq import merge as _heap_merge
from operator import add, attrgetter, sub
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.versioning.extended_vector import TruncatedHistoryError, UpdateRecord
from repro.versioning.version_vector import VersionVector

_metadata_delta = attrgetter("metadata_delta")


@dataclass(slots=True)
class LogEntry:
    """One applied update and its invalidation flag (built when read)."""

    record: UpdateRecord
    applied_at: float
    invalidated: bool = False

    @property
    def live(self) -> bool:
        return not self.invalidated


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
    #: latest applied_at among folded entries (floors ``last_applied_at``)
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


class _Columns:
    """One writer's retained tail: records, applied-at stamps, ticks."""

    __slots__ = ("records", "stamps", "ticks")

    def __init__(self) -> None:
        self.records: List[UpdateRecord] = []
        self.stamps: List[float] = []
        self.ticks = array("q")


def _gap(writer: str, seq: int, expected: int) -> ValueError:
    return ValueError(f"out-of-order update from {writer!r}: got seq {seq}, "
                      f"expected {expected}")


class UpdateLog:
    """Ordered, idempotent log of updates applied to one replica."""

    def __init__(self) -> None:
        self.checkpoint = LogCheckpoint()
        #: retained columns per writer, in first-append order; a writer whose
        #: tail folds away entirely leaves and re-enters at its next append
        self._tails: Dict[str, _Columns] = {}
        #: next application-order tick
        self._tick = 0
        #: every stamp so far was >= the one before; while it holds, stamp
        #: columns are sorted and the time cuts bisect them
        self._monotone = True
        self._last_stamp = float("-inf")
        #: the dead retained entries, held with their flags
        self._dead: Dict[Tuple[str, int], LogEntry] = {}
        #: running sum of metadata deltas over live *retained* entries
        self._live_metadata = 0.0
        #: mutations aimed below the checkpoint (counted, per the stability
        #: invariant they can only concern already-stable records)
        self.invalidated_below_checkpoint = 0

    def __len__(self) -> int:
        """Total updates ever applied (folded prefix + retained tail)."""
        return self.checkpoint.entries_folded + self.retained_count()

    def retained_count(self) -> int:
        """Entries currently held as records (the bench's live-log gauge)."""
        return sum(len(tail.records) for tail in self._tails.values())

    def _count(self, writer: str) -> int:
        """How many of ``writer``'s updates were applied (folded or retained)."""
        tail = self._tails.get(writer)
        return self.checkpoint.counts.get(writer, 0) + (
            len(tail.records) if tail is not None else 0)

    def __contains__(self, key: Tuple[str, int]) -> bool:
        writer, seq = key
        return 1 <= seq <= self._count(writer)

    # -------------------------------------------------------------- appends
    def append(self, record: UpdateRecord, applied_at: float) -> bool:
        """Append a record; returns False if it was already present and
        raises :class:`ValueError` if it would leave a gap in its writer's seqs."""
        writer, seq = record.writer, record.seq
        tail = self._tails.get(writer)
        # ``_count`` inlined: this is every local write's path
        have = self.checkpoint.counts.get(writer, 0) + (
            len(tail.records) if tail is not None else 0)
        if seq != have + 1:
            if 1 <= seq <= have:
                return False
            raise _gap(writer, seq, have + 1)
        if tail is None:
            tail = self._tails[writer] = _Columns()
        tail.records.append(record)
        tail.stamps.append(applied_at)
        tail.ticks.append(self._tick)
        self._tick += 1
        if applied_at < self._last_stamp:
            self._monotone = False
        self._last_stamp = applied_at
        self._live_metadata += record.metadata_delta
        return True

    def extend(self, records: Iterable[UpdateRecord], applied_at: float) -> int:
        """Append many records applied at one instant; returns how many were new.

        Leaves exactly what :meth:`append` per record would, but validates
        the whole batch first — a per-writer gap raises with the log
        unchanged — and then extends each writer's columns once.
        """
        tails = self._tails
        #: writer -> [last seq taken, new records, their ticks], by first new
        fresh: Dict[str, list] = {}
        new: List[UpdateRecord] = []
        tick = self._tick
        for record in records:
            writer, seq = record.writer, record.seq
            batch = fresh.get(writer)
            have = batch[0] if batch is not None else self._count(writer)
            if seq != have + 1:
                if 1 <= seq <= have:
                    continue
                raise _gap(writer, seq, have + 1)
            if batch is None:
                batch = fresh[writer] = [seq, [], []]
            batch[0] = seq
            batch[1].append(record)
            batch[2].append(tick)
            new.append(record)
            tick += 1
        if not new:
            return 0
        for writer, (_, pending, ticks) in fresh.items():
            tail = tails.get(writer)
            if tail is None:
                tail = tails[writer] = _Columns()
            tail.records += pending
            tail.stamps += [applied_at] * len(pending)
            tail.ticks.extend(ticks)
        self._tick = tick
        if applied_at < self._last_stamp:
            self._monotone = False
        self._last_stamp = applied_at
        # ``+=`` in input order, as append would (``sum`` compensates on 3.12+)
        self._live_metadata = reduce(add, map(_metadata_delta, new),
                                     self._live_metadata)
        return len(new)

    # ------------------------------------------------------------- queries
    def _in_order(self, *, live_only: bool = False) -> List[LogEntry]:
        """Retained entries in application order."""
        rows = []
        dead = self._dead
        for writer, tail in self._tails.items():
            records, stamps, ticks = tail.records, tail.stamps, tail.ticks
            for i in range(len(records)):
                entry = dead.get((writer, records[i].seq))
                if entry is None:
                    entry = LogEntry(records[i], stamps[i])
                elif live_only:
                    continue
                rows.append((ticks[i], entry))
        rows.sort()  # ticks are distinct: entries are never compared
        return [entry for _, entry in rows]

    def entries(self, include_dead: bool = False) -> List[LogEntry]:
        """Retained entries in application order (folded ones are gone)."""
        return self._in_order(live_only=not include_dead)

    def records(self, include_dead: bool = False) -> List[UpdateRecord]:
        return [e.record for e in self.entries(include_dead=include_dead)]

    def record_keys(self) -> Set[Tuple[str, int]]:
        """All retained update keys, live or dead (a fresh set)."""
        return {(r.writer, r.seq) for tail in self._tails.values()
                for r in tail.records}

    def get(self, key: Tuple[str, int]) -> Optional[LogEntry]:
        """The retained entry for ``key``; ``None`` if folded or never applied."""
        writer, seq = key
        tail = self._tails.get(writer)
        if tail is None:
            return None
        i = seq - self.checkpoint.counts.get(writer, 0) - 1
        if not 0 <= i < len(tail.records):
            return None
        entry = self._dead.get((writer, seq))
        return entry if entry is not None else LogEntry(tail.records[i], tail.stamps[i])

    def missing_from(self, known: Union[Set[Tuple[str, int]], VersionVector]
                     ) -> List[UpdateRecord]:
        """Live records present here that the peer lacks.

        Against a :class:`VersionVector` of the peer's per-writer counts (the
        anti-entropy digest) each writer's records above its count, a column
        slice, writers in first-append order; against a key-*set*, a scan in
        application order.  Raises :class:`TruncatedHistoryError` when the
        peer is behind the checkpoint: those records were folded.
        """
        counts = self.checkpoint.counts
        if isinstance(known, VersionVector):
            # A peer behind the checkpoint of ANY writer — including one
            # whose retained tail is empty because everything folded — needs
            # records that no longer exist; fail loudly, never silently
            # under-serve an anti-entropy exchange.
            for writer, base in counts.items():
                have = known.count(writer)
                if have < base:
                    raise TruncatedHistoryError(
                        f"peer knows {have} updates of writer {writer!r} "
                        f"but seqs 1..{base} were folded into the "
                        f"checkpoint")
            missing: List[UpdateRecord] = []
            dead = self._dead
            for writer, tail in self._tails.items():
                above = tail.records[known.count(writer) - counts.get(writer, 0):]
                if dead:
                    above = [r for r in above if (writer, r.seq) not in dead]
                missing += above
            return missing
        if self.checkpoint.entries_folded:
            # Key-set path: a contiguous peer that held a writer's whole
            # folded prefix must know its highest folded key.
            for writer, base in counts.items():
                if (writer, base) not in known:
                    raise TruncatedHistoryError(
                        f"peer does not know ({writer!r}, {base}) although "
                        f"seqs 1..{base} were folded into the checkpoint")
        return [e.record for e in self._in_order(live_only=True)
                if (e.record.writer, e.record.seq) not in known]

    def last_applied_at(self) -> float:
        """When the replica last applied a live update (0.0 if it never did).

        The latest live retained stamp (each writer's last while all are live
        and monotone), floored by the checkpoint's fold horizon so a
        truncated log answers like an untruncated one.
        """
        stamps = ((tail.stamps[-1] for tail in self._tails.values())
                  if self._monotone and not self._dead
                  else (e.applied_at for e in self._in_order(live_only=True)))
        last = max(stamps, default=0.0)
        through = self.checkpoint.applied_through
        return last if last >= through else through

    def live_content(self) -> List[Any]:
        """Live payloads in ``(timestamp, writer, seq)`` order: the
        checkpoint's pre-sorted chunks merged with the sorted retained tail."""
        if self.checkpoint.content_dropped:
            raise TruncatedHistoryError(
                "folded payloads were discarded by a keep_content=False "
                "truncation; this replica can no longer serve full-content "
                "reads")
        dead = self._dead
        tail = sorted((r.timestamp, r.writer, r.seq, r.payload)
                      for columns in self._tails.values() for r in columns.records
                      if not dead or (r.writer, r.seq) not in dead)
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

        Keys below the checkpoint are counted in
        :attr:`invalidated_below_checkpoint`, not silently ignored: they were
        known everywhere, so a policy naming them means the frontier ran
        ahead of resolution.
        """
        count = 0
        for key in keys:
            entry = self.get(key)
            if entry is None:
                writer, seq = key
                if 1 <= seq <= self.checkpoint.count(writer):
                    self.invalidated_below_checkpoint += 1
                continue
            if not entry.invalidated:
                record = entry.record
                self._dead[(record.writer, record.seq)] = entry
                self._live_metadata -= record.metadata_delta
                entry.invalidated = True
                count += 1
        return count

    # ---------------------------------------------------------- truncation
    def truncate(self, frontier: Dict[str, int], *,
                 keep_after: Optional[float] = None,
                 keep_content: bool = True) -> int:
        """Fold each writer's stable prefix (seqs ≤ ``frontier[writer]``);
        returns the number of entries folded.

        ``keep_after`` also pins entries applied after that time, stable or
        not: the first entry too new (or beyond the frontier) stops a
        writer's fold.
        ``keep_content=False`` drops the folded payloads instead of keeping
        them in the checkpoint (metadata-only workloads: memory stays flat
        in run length); full-content reads then raise
        :class:`TruncatedHistoryError`.
        """
        checkpoint = self.checkpoint
        live_before = checkpoint.live_folded
        dead = self._dead
        folded = 0
        content: List[Tuple[float, str, int, Any]] = []
        for writer, target in frontier.items():
            tail = self._tails.get(writer)
            if tail is None:
                continue
            records, stamps = tail.records, tail.stamps
            base = checkpoint.counts.get(writer, 0)
            fold_n = min(target - base, len(records))
            if fold_n > 0 and keep_after is not None:
                if self._monotone:
                    fold_n = bisect_right(stamps, keep_after, 0, fold_n)
                else:
                    fold_n = next((i for i in range(fold_n)
                                   if stamps[i] > keep_after), fold_n)
            if fold_n <= 0:
                continue
            live = records[:fold_n]
            if dead:
                live = [r for r in live if dead.pop((writer, r.seq), None) is None]
            deltas = list(map(_metadata_delta, live))
            checkpoint.metadata = reduce(add, deltas, checkpoint.metadata)
            self._live_metadata = reduce(sub, deltas, self._live_metadata)
            checkpoint.live_folded += len(live)
            if keep_content:
                content += [(r.timestamp, r.writer, r.seq, r.payload) for r in live]
            top = stamps[fold_n - 1] if self._monotone else max(stamps[:fold_n])
            if top > checkpoint.applied_through:
                checkpoint.applied_through = top
            del records[:fold_n], stamps[:fold_n], tail.ticks[:fold_n]
            if not records:
                del self._tails[writer]
            checkpoint.counts[writer] = base + fold_n
            folded += fold_n
        if not folded:
            return 0
        checkpoint.entries_folded += folded
        if not keep_content and checkpoint.live_folded > live_before:
            checkpoint.content_dropped = True
        if content:
            content.sort()
            checkpoint.content_chunks.append(content)
        return folded
