"""Extended version vectors (paper Section 4.4.1, Figures 4 and 5).

IDEA's extended version vector augments the classic per-writer update counts
with:

1. **Per-update timestamps** — e.g. ``A:2(1, 2)`` means writer A's two
   updates happened at (node-local, NTP-bounded) times 1 and 2.  These are
   the basis of the *staleness* component of the error triple.
2. **A numerical application meta-datum** (the ``[5]`` column in Figure 5) —
   a quick summary of the replica's content whose gap between two replicas
   gives the *numerical error* (sum of ASCII codes for a white board; total
   sale price for the booking system).
3. **The last consistent time** — when a resolution last brought the
   replica to a consistent state.

The TACT-style error triple ``<numerical error, order error, staleness>``
is *computed* against a chosen reference consistent state, never carried:
detection computes it from digests (:mod:`repro.core.detection`), and
``tests/test_extended_vector.py`` reproduces Figure 4's worked example
through that one formula.

Long runs add a **checkpoint ⊕ tail layout**.  A stable prefix of a
writer's updates — updates known-received by every replica (Parker et al.'s
classic version-vector GC argument) — can be folded into a per-writer
:class:`WriterBase` summary ``(count, cumulative metadata, last
timestamp)``, the same fold a digest carries per writer.  Every derived
quantity the protocols consume (counts, digests, error triples, merge
outcomes) is a function of the base plus the retained tail, so folding
changes no observable behaviour while bounding the records held in memory
by the truncation window.  Operations that would need a *folded record
itself* (pushing it to a replica that is behind the checkpoint) raise
:class:`TruncatedHistoryError` with a clear message.

Every vector holds one invariant, checked by the constructor: per writer
the retained records run ``base + 1 .. count`` (``1 .. count`` without a
checkpoint), and a checkpoint folds at least one record.  A writer's
retained records are a :class:`History`: a prefix view of an append-only
list that the successive vectors of a replica share, so applying an update
appends one record instead of copying everything retained.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, islice
from operator import add, attrgetter
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.versioning.values import frozen_value
from repro.versioning.version_vector import VersionVector


class TruncatedHistoryError(RuntimeError):
    """An operation needed update records already folded into a checkpoint."""


@frozen_value
class UpdateRecord:
    """A single write applied to a replica.

    Attributes
    ----------
    writer:
        Identity of the writer (node/user id).
    seq:
        The writer's sequence number for this update (1-based, strictly
        increasing per writer).
    timestamp:
        The writer's clock reading when the update was issued.
    metadata_delta:
        Contribution of this update to the replica's numerical meta-datum.
    payload:
        Opaque application content (white-board stroke, booking record, ...).
    """

    writer: str
    seq: int
    timestamp: float
    metadata_delta: float = 0.0
    payload: Any = None

    def key(self) -> Tuple[str, int]:
        """Unique identity of the update: (writer, per-writer sequence)."""
        return (self.writer, self.seq)


@frozen_value
class WriterBase:
    """One writer's updates ``1..count`` folded: a checkpoint, or a digest row.

    Carries exactly what digests and triples need from the folded records:
    how many there were, their summed metadata deltas (folded in seq order,
    so the float result is bit-identical to an incremental fold over the
    records), and the latest issue timestamp among them.
    """

    count: int
    cum_metadata: float
    last_timestamp: float

    def fold(self, records: Sequence[UpdateRecord]) -> "WriterBase":
        """Extend this base by ``records`` (the next seqs, in order).

        Folding from the empty base seeds the timestamp from the first
        record, so the result equals a from-scratch ``sum``/``max`` over the
        records bit-for-bit — every digest/summary fold in the system goes
        through here and stays interchangeable with the unfolded form.
        """
        if not records:
            return self
        cum = self.cum_metadata
        if self.count == 0:
            first = records[0]
            cum += first.metadata_delta
            last = first.timestamp
            rest = records[1:]
        else:
            last = self.last_timestamp
            rest = records
        for record in rest:
            cum += record.metadata_delta
            if record.timestamp > last:
                last = record.timestamp
        return WriterBase(count=self.count + len(records), cum_metadata=cum,
                          last_timestamp=last)


#: the empty prefix — folding from it reproduces a from-scratch summary
WriterBase.EMPTY = WriterBase(count=0, cum_metadata=0.0, last_timestamp=0.0)


@frozen_value
class ErrorTriple:
    """The ``<numerical error, order error, staleness>`` triple."""

    numerical: float = 0.0
    order: float = 0.0
    staleness: float = 0.0

    def __post_init__(self) -> None:
        if self.numerical < 0 or self.order < 0 or self.staleness < 0:
            raise ValueError(f"error components must be non-negative: {self}")


_NO_BASES: Dict[str, WriterBase] = {}


class History:
    """One writer's retained records: the first ``n`` of a shared list.

    The list is append-only and shared by every view cut from it; a view
    never reads past its own ``n``, so what it holds never changes.  Code in
    this module reads the two slots directly — the dunders serve equality
    and the cold whole-history walks.
    """

    __slots__ = ("records", "n")

    def __init__(self, records: List[UpdateRecord], n: int) -> None:
        self.records = records
        self.n = n

    def above(self, k: int) -> List[UpdateRecord]:
        """The view's records past its first ``k`` (a fresh list)."""
        return self.records[k:self.n]

    def extended(self, new: Iterable[UpdateRecord]) -> "History":
        """A view of this one's records followed by ``new``.

        The tip of its list (nobody appended past it) appends in place;
        an older view copies its prefix first, so no view cut earlier ever
        observes a record it did not hold.  The empty view is one shared
        object and starts a list of its own.
        """
        records = self.records
        if not 0 < self.n == len(records):
            records = records[:self.n]
        records.extend(new)
        return History(records, len(records))

    def __iter__(self):
        return islice(self.records, self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        return self.n == other.n and (
            self.records is other.records
            or self.records[:self.n] == other.records[:other.n])


#: what a vector holds of a writer it has no retained record of
_NO_HISTORY = History([], 0)


@frozen_value
class VectorDelta:
    """A vector with each writer's records at or below a floor left out.

    What a resolution round ships (§4.5): a collect reply holds the
    member's vector above the initiator's counts, an install the merged
    image above what every member holds.  ``rows`` maps each writer the
    vector retains records of, in the vector's order, to ``(floor,
    records)``: the records ``floor + 1 .. count``, where the floor is at
    least the writer's checkpoint.  ``bases``, ``metadata`` and
    ``last_consistent_time`` are the vector's own.  Built by
    :meth:`ExtendedVersionVector.delta_above`; ``live.wire`` checks a
    decoded one.
    """

    rows: Dict[str, Tuple[int, List[UpdateRecord]]]
    bases: Dict[str, WriterBase]
    metadata: float
    last_consistent_time: float

    def rebuild(self, snapshot: "ExtendedVersionVector") -> "ExtendedVersionVector":
        """The vector this delta was cut from, its records at or below each
        floor read from ``snapshot``, which holds them.

        Where the sender's checkpoint is below the snapshot's, the
        snapshot's checkpoint stands in: the records between them are
        known to every replica (the stability frontier, DESIGN.md §9), so
        the stand-in merges and yields the concurrent set as the sender's
        vector does.  Raises :class:`TruncatedHistoryError` when the sender
        is behind the snapshot's checkpoint, and ``ValueError`` when a
        floor lies above what the snapshot holds.
        """
        bases = self.bases
        held_bases, held_of = snapshot._base, snapshot._updates
        updates: Dict[str, History] = {}
        for writer, (floor, records) in self.rows.items():
            base = bases.get(writer)
            start = base.count if base is not None else 0
            if floor == start:
                history = History(records[:], len(records))
            else:
                held_base = held_bases.get(writer)
                offset = held_base.count if held_base is not None else 0
                if start < offset:
                    if floor < offset:
                        raise TruncatedHistoryError(
                            f"the sender holds {floor} updates of writer "
                            f"{writer!r}, below this replica's checkpoint "
                            f"at {offset}")
                    if bases is self.bases:
                        bases = dict(bases)
                    bases[writer] = held_base
                    start = offset
                held = held_of.get(writer, _NO_HISTORY)
                if floor - offset > held.n:
                    raise ValueError(
                        f"a delta's floor {floor} for writer {writer!r} is "
                        f"above the {offset + held.n} updates held here")
                if start == offset:
                    history = (History(held.records, floor - offset)
                               if floor - offset < held.n else held)
                    if records:
                        history = history.extended(records)
                else:
                    prefix = held.records[start - offset:floor - offset]
                    prefix += records
                    history = History(prefix, len(prefix))
            if history.n:
                updates[writer] = history
        return ExtendedVersionVector._from_trusted(
            updates, metadata=self.metadata,
            last_consistent_time=self.last_consistent_time,
            base=bases if bases else _NO_BASES)

    def installed_on(self, vector: "ExtendedVersionVector"
                     ) -> Tuple["ExtendedVersionVector", List[Tuple[str, int]]]:
        """``vector`` with the records above its per-writer counts appended
        in ``(writer, seq)`` order, one history extension per writer, and
        per writer how many: a fold of :meth:`ExtendedVersionVector.apply`
        over them, metadata bits included.  Raises
        :class:`TruncatedHistoryError` when ``vector`` is below a writer's
        floor: the records it lacks were not shipped."""
        missing: List[Tuple[str, List[UpdateRecord]]] = []
        metadata = vector._metadata
        rows, bases = self.rows, self.bases
        for writer in sorted(rows.keys() | bases.keys() if bases else rows):
            have = vector.count(writer)
            row = rows.get(writer)
            floor, records = row if row is not None else (bases[writer].count, ())
            if have < floor:
                raise TruncatedHistoryError(
                    f"peer knows only {have} updates of writer {writer!r} but "
                    f"the delta holds them from seq {floor + 1} on; records "
                    f"below the stability frontier are no longer "
                    f"individually available")
            if have - floor < len(records):
                new = records[have - floor:]
                missing.append((writer, new))
                metadata = reduce(add, map(_metadata_delta, new), metadata)
        return (vector._extended(missing, metadata) if missing else vector,
                [(writer, len(new)) for writer, new in missing])

_metadata_delta = attrgetter("metadata_delta")
_cum_metadata = attrgetter("cum_metadata")
#: sort keys, computed in C: a writer's records by seq, and the
#: (timestamp, writer, seq) order records are replayed in
_BY_SEQ = attrgetter("seq")
_BY_TIME = attrgetter("timestamp", "writer", "seq")


class ExtendedVersionVector:
    """Immutable extended version vector in checkpoint ⊕ tail layout.

    Instances are value objects: :meth:`apply` and :meth:`merge` return new
    vectors.  A replica's current vector lives in
    :class:`repro.store.replica.Replica`.  With no checkpoint (the default)
    the layout degenerates to the classic all-records form.

    The constructor is the one place a vector is checked (``live.wire``
    decodes through it): records in any order, sorted by seq, must run
    ``base + 1 .. count`` per writer with no duplicate or gap, and each
    checkpoint must fold at least one update; anything else is a
    ``ValueError``.  Every other vector is built from vectors that hold the
    invariant, by operations that keep it.
    """

    __slots__ = ("_updates", "_base", "_metadata", "_last_consistent_time",
                 "_counts_cache", "_keys_cache",
                 "_hash_cache", "_total_cache")

    def __init__(self, updates: Mapping[str, Iterable[UpdateRecord]] | None = None,
                 metadata: float = 0.0, last_consistent_time: float = 0.0,
                 base: Mapping[str, WriterBase] | None = None) -> None:
        bases: Dict[str, WriterBase] = dict(base) if base else _NO_BASES
        for writer, folded in bases.items():
            if folded.count < 1:
                raise ValueError(f"checkpoint of writer {writer!r} must fold at "
                                 f"least one update (count {folded.count})")
        cleaned: Dict[str, History] = {}
        if updates:
            for writer, records in updates.items():
                records = sorted(records, key=_BY_SEQ)
                if not records:
                    continue
                if any(r.writer != writer for r in records):
                    raise ValueError("update record writer does not match map key")
                start = bases[writer].count if writer in bases else 0
                seqs = [r.seq for r in records]
                if seqs != list(range(start + 1, start + 1 + len(seqs))):
                    raise ValueError(
                        f"records of writer {writer!r} must run "
                        f"{start + 1}..{start + len(seqs)}, got seqs {seqs}")
                cleaned[writer] = History(records, len(records))
        self._updates = cleaned
        self._base = bases
        self._metadata = float(metadata)
        self._last_consistent_time = float(last_consistent_time)
        self._counts_cache: Optional[VersionVector] = None
        self._keys_cache: Optional[frozenset] = None
        self._hash_cache: Optional[int] = None
        self._total_cache: Optional[int] = None

    @classmethod
    def _from_trusted(cls, updates: Dict[str, History],
                      metadata: float, last_consistent_time: float,
                      base: Dict[str, WriterBase] = _NO_BASES) -> "ExtendedVersionVector":
        """Build from histories that already hold the invariant.

        Internal fast path used by :meth:`apply`, :meth:`merge` and the
        other derived vectors: per-writer histories are non-empty and run
        ``base[writer].count + 1 .. count`` by construction, so the
        O(total updates) check of ``__init__`` is skipped.  The caller
        transfers ownership of ``updates`` (and ``base`` when given).
        """
        vector = cls.__new__(cls)
        vector._updates = updates
        vector._base = base
        vector._metadata = metadata
        vector._last_consistent_time = last_consistent_time
        vector._counts_cache = None
        vector._keys_cache = None
        vector._hash_cache = None
        vector._total_cache = None
        return vector

    # ----------------------------------------------------------- properties
    @property
    def metadata(self) -> float:
        """Current numerical meta-datum of the replica."""
        return self._metadata

    @property
    def last_consistent_time(self) -> float:
        """Last time point at which the replica was known to be consistent."""
        return self._last_consistent_time

    def counts(self) -> VersionVector:
        """Project onto a classic version vector of per-writer counts.

        Memoised per instance — vectors are immutable and the projection is
        taken on every digest comparison.  Counts include the checkpointed
        prefix: truncation never changes what this returns.
        """
        cached = self._counts_cache
        if cached is None:
            counts = {w: history.n for w, history in self._updates.items()}
            for writer, base in self._base.items():
                counts[writer] = counts.get(writer, 0) + base.count
            cached = self._counts_cache = VersionVector._from_trusted(counts)
        return cached

    def count(self, writer: str) -> int:
        total = self._updates.get(writer, _NO_HISTORY).n
        base = self._base.get(writer)
        return total + base.count if base is not None else total

    def base_count(self, writer: str) -> int:
        """How many of ``writer``'s updates are folded into the checkpoint."""
        base = self._base.get(writer)
        return base.count if base is not None else 0

    def writer_base(self, writer: str) -> Optional[WriterBase]:
        return self._base.get(writer)

    def bases(self) -> Dict[str, WriterBase]:
        """The per-writer checkpoint bases (copy; empty when untruncated)."""
        return dict(self._base)

    def writers(self) -> Tuple[str, ...]:
        if not self._base:
            return tuple(sorted(self._updates))
        return tuple(sorted(set(self._updates) | set(self._base)))

    def updates_from(self, writer: str) -> List[UpdateRecord]:
        """The *retained* (tail) records of ``writer``, in seq order.

        For an untruncated vector this is the writer's full history; after a
        checkpoint it starts at ``base_count(writer) + 1``.
        """
        return self.updates_above(writer, 0)

    def updates_above(self, writer: str, count: int) -> List[UpdateRecord]:
        """``writer``'s retained records with a seq above ``count``.

        One list slice: tails are seq-contiguous above the base, so what a
        holder of ``count`` updates lacks is a suffix — the whole tail when
        ``count`` is below the checkpoint (the folded ones are the caller's).
        """
        base = self._base.get(writer)
        if base is not None:
            count -= base.count
        return self._updates.get(writer, _NO_HISTORY).above(
            count if count > 0 else 0)

    def updates_through(self, writer: str, count: int) -> List[UpdateRecord]:
        """``writer``'s retained records with a seq up to ``count``.

        One prefix slice of the shared list: what folding the writer up to
        ``count`` takes, without copying the rest of the tail.
        """
        base = self._base.get(writer)
        if base is not None:
            count -= base.count
        history = self._updates.get(writer, _NO_HISTORY)
        return history.records[:min(count, history.n)] if count > 0 else []

    def all_updates(self) -> List[UpdateRecord]:
        """Every retained update, ordered by timestamp then writer (stable)."""
        records = [r for recs in self._updates.values() for r in recs]
        return sorted(records, key=_BY_TIME)

    def update_keys(self) -> frozenset:
        """Every retained ``(writer, seq)`` key (memoised; read-only)."""
        cached = self._keys_cache
        if cached is None:
            cached = self._keys_cache = frozenset(
                (r.writer, r.seq) for recs in self._updates.values() for r in recs)
        return cached

    def total_updates(self) -> int:
        cached = self._total_cache
        if cached is None:
            cached = sum(history.n for history in self._updates.values())
            cached += sum(b.count for b in self._base.values())
            self._total_cache = cached
        return cached

    # -------------------------------------------------------------- algebra
    def apply(self, record: UpdateRecord) -> "ExtendedVersionVector":
        """Apply a local or remote update and return the resulting vector.

        O(writers) plus one append, whatever the writer retains: the
        per-writer tails are seq-contiguous above the base by invariant, so
        a duplicate is exactly a record whose seq does not exceed the
        writer's current count, and the writer's history is extended, not
        copied.
        """
        existing = self._updates.get(record.writer, _NO_HISTORY)
        expected_seq = self.base_count(record.writer) + existing.n + 1
        if record.seq != expected_seq:
            if 1 <= record.seq < expected_seq:
                return self  # duplicate delivery: idempotent
            raise ValueError(
                f"out-of-order update from {record.writer!r}: got seq {record.seq}, "
                f"expected {expected_seq}")
        updates = dict(self._updates)
        updates[record.writer] = existing.extended((record,))
        return ExtendedVersionVector._from_trusted(
            updates,
            metadata=self._metadata + record.metadata_delta,
            last_consistent_time=self._last_consistent_time,
            base=self._base)

    def apply_many(self, records: Iterable[UpdateRecord]
                   ) -> Tuple["ExtendedVersionVector", List[UpdateRecord]]:
        """Apply ``records`` in one step; returns the vector and the new records.

        ``records`` must list each writer's records in seq order (writers may
        interleave).  The result equals a fold of :meth:`apply` over them —
        duplicates skipped, an out-of-order seq raises, metadata accumulated
        with ``+=`` in the given order so the float is the fold's — but each
        writer's history is extended once, not once per record, and a refused
        batch yields no vector at all.
        """
        fresh: Dict[str, List[UpdateRecord]] = {}
        applied: List[UpdateRecord] = []
        metadata = self._metadata
        for record in records:
            pending = fresh.get(record.writer)
            expected_seq = (pending[-1].seq if pending is not None
                            else self.count(record.writer)) + 1
            if record.seq != expected_seq:
                if 1 <= record.seq < expected_seq:
                    continue  # duplicate delivery: idempotent
                raise ValueError(
                    f"out-of-order update from {record.writer!r}: got seq {record.seq}, "
                    f"expected {expected_seq}")
            if pending is None:
                fresh[record.writer] = [record]
            else:
                pending.append(record)
            metadata += record.metadata_delta
            applied.append(record)
        if not applied:
            return self, applied
        return self._extended(fresh.items(), metadata), applied

    def _extended(self, rows: Iterable[Tuple[str, List[UpdateRecord]]],
                  metadata: float) -> "ExtendedVersionVector":
        """This vector with each ``(writer, records)`` row appended to the
        writer's history (the records run on from its count) and
        ``metadata`` as its meta-datum."""
        updates = dict(self._updates)
        for writer, records in rows:
            updates[writer] = updates.get(writer, _NO_HISTORY).extended(records)
        return ExtendedVersionVector._from_trusted(
            updates, metadata=metadata,
            last_consistent_time=self._last_consistent_time, base=self._base)

    def truncate_to(self, frontier: Mapping[str, int]) -> "ExtendedVersionVector":
        """Fold each writer's prefix up to ``frontier[writer]`` into the base.

        ``frontier`` counts beyond a writer's current count are clamped;
        counts at or below the current base are no-ops.  Everything derived
        from the vector (counts, digests, triples, merge results) is
        unchanged — only the retained records shrink.
        """
        new_base: Optional[Dict[str, WriterBase]] = None
        new_updates: Optional[Dict[str, History]] = None
        for writer, target in frontier.items():
            current_base = self._base.get(writer, WriterBase.EMPTY)
            tail = self._updates.get(writer, _NO_HISTORY)
            fold_n = min(int(target) - current_base.count, tail.n)
            if fold_n <= 0:
                continue
            if new_base is None:
                new_base = dict(self._base)
                new_updates = dict(self._updates)
            new_base[writer] = current_base.fold(tail.records[:fold_n])
            remaining = tail.above(fold_n)  # a fresh list: the old one can go
            if remaining:
                new_updates[writer] = History(remaining, len(remaining))
            else:
                del new_updates[writer]
        if new_base is None:
            return self
        return ExtendedVersionVector._from_trusted(
            new_updates, metadata=self._metadata,
            last_consistent_time=self._last_consistent_time,
            base=new_base)

    def merge(self, other: "ExtendedVersionVector",
              consistent_time: Optional[float] = None) -> "ExtendedVersionVector":
        """Union of the update sets of both replicas (resolution outcome).

        One rule per writer: the higher checkpoint (this side's on a tie),
        then this side's records above it, extended by whatever ``other``
        holds beyond them.  Folded prefixes are identical everywhere by the
        stability invariant, so the higher checkpoint subsumes the records
        the lower side holds below it; on every other seq both sides hold,
        this side's record is the one kept.  A history that gains nothing
        is shared untouched and one that gains is extended, so the merge
        costs O(writers + new records) plus one C-level metadata ``sum``.
        Both sides hold the invariant, so the union does too and skips the
        constructor's check.

        The result lists this vector's writers in its order (those with
        retained records, then those with a checkpoint only), then the
        writers only ``other`` knows in ``other``'s order.  The metadata is
        recomputed as one sum over the checkpoints, then the retained
        records, in that order, so the float does not depend on
        ``PYTHONHASHSEED``.
        """
        new_time = (max(self._last_consistent_time, other._last_consistent_time)
                    if consistent_time is None else float(consistent_time))
        mine, my_bases = self._updates, self._base
        theirs, their_bases = other._updates, other._base
        bases: Dict[str, WriterBase] = {}
        updates: Dict[str, History] = {}
        for writer in dict.fromkeys(chain(mine, my_bases, theirs, their_bases)):
            base = my_bases.get(writer)
            my_floor = base.count if base is not None else 0
            their_base = their_bases.get(writer)
            their_floor = their_base.count if their_base is not None else 0
            tail = mine.get(writer, _NO_HISTORY)
            if their_floor > my_floor:
                base = their_base
                rest = tail.above(their_floor - my_floor)
                tail = History(rest, len(rest))
            floor = max(my_floor, their_floor)
            held = theirs.get(writer, _NO_HISTORY)
            # the seqs ``other`` holds that the union already has
            covered = floor + tail.n - their_floor
            if held.n > covered:
                # a view of the list ``tail`` views (a rebuilt collect reply)
                # already holds it as a prefix
                tail = (held if covered == 0 or held.records is tail.records
                        else tail.extended(held.above(covered)))
            if floor:
                bases[writer] = base
            if tail.n:
                updates[writer] = tail
        metadata = float(sum(chain(
            map(_cum_metadata, bases.values()),
            map(_metadata_delta, chain.from_iterable(updates.values())))))
        return ExtendedVersionVector._from_trusted(
            updates, metadata=metadata, last_consistent_time=new_time,
            base=bases if bases else _NO_BASES)

    def with_consistent_time(self, time: float) -> "ExtendedVersionVector":
        """Mark the replica as consistent as of ``time`` (post-resolution)."""
        return ExtendedVersionVector._from_trusted(
            self._updates, metadata=self._metadata,
            last_consistent_time=float(time), base=self._base)

    # ------------------------------------------------------- against another
    def missing_from(self, other: "ExtendedVersionVector | VersionVector"
                     ) -> List[UpdateRecord]:
        """Updates known here but absent from ``other`` (what to push).

        ``other`` is a peer's vector or just its per-writer counts.  Served
        per writer from the seq-contiguous tails in O(missing): ``other``
        lacks exactly the records above its per-writer count, returned in
        ``(writer, seq)`` order — writer by writer in sorted order, each
        writer's suffix as held — which is the order :meth:`apply_many`
        takes, so the receiver sorts nothing per record.
        Raises :class:`TruncatedHistoryError` when a needed record was
        folded into this vector's checkpoint — the peer is behind the
        stability frontier.
        """
        missing: List[UpdateRecord] = []
        for writer in sorted(set(self._updates) | set(self._base)
                             if self._base else self._updates):
            have = other.count(writer)
            base_count = self.base_count(writer)
            if have >= base_count + self._updates.get(writer, _NO_HISTORY).n:
                continue
            if have < base_count:
                raise TruncatedHistoryError(
                    f"peer knows only {have} updates of writer {writer!r} but "
                    f"seqs 1..{base_count} were folded into this replica's "
                    f"checkpoint; records below the stability frontier are "
                    f"no longer individually available")
            missing.extend(self.updates_above(writer, have))
        return missing

    def delta_above(self, counts: Mapping[str, int]) -> VectorDelta:
        """This vector less each writer's records at or below ``counts``
        (what a holder of those counts lacks), floored at the checkpoint:
        one slice per writer, nothing folded.  ``counts`` is a mapping
        such as ``snapshot.counts().as_dict()``, and the delta's
        ``rebuild(snapshot)`` merges as this vector does.
        """
        rows: Dict[str, Tuple[int, List[UpdateRecord]]] = {}
        bases = self._base
        for writer, history in self._updates.items():
            base = bases.get(writer)
            floor = base.count if base is not None else 0
            held = counts.get(writer, 0) - floor
            if held <= 0:
                rows[writer] = (floor, history.records[:history.n])
            elif held < history.n:
                rows[writer] = (floor + held, history.records[held:history.n])
            else:
                rows[writer] = (floor + history.n, [])
        return VectorDelta(rows, bases, self._metadata,
                           self._last_consistent_time)

    # ------------------------------------------------------------- pickling
    def __reduce__(self):
        """Pickle the content fields through the checked constructor.

        Every memo stays behind: ``counts()``'s ``dense()`` indexes the
        process-local ``GLOBAL_WRITERS`` table and ``__hash__`` is salted
        per process.  Each writer's history goes as this vector's own
        prefix, never what a newer vector appended to the shared list.
        """
        return (ExtendedVersionVector,
                ({w: h.above(0) for w, h in self._updates.items()},
                 self._metadata, self._last_consistent_time, self._base))

    # -------------------------------------------------------------- dunder
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtendedVersionVector):
            return NotImplemented
        return (self._updates == other._updates
                and self._base == other._base
                and self._metadata == other._metadata)

    def __hash__(self) -> int:
        cached = self._hash_cache
        if cached is None:
            cached = self._hash_cache = hash(
                (tuple(sorted((w, tuple(r.key() for r in recs))
                              for w, recs in self._updates.items())),
                 tuple(sorted(self._base.items())),
                 self._metadata))
        return cached

    def __repr__(self) -> str:
        parts = []
        for writer in self.writers():
            recs = self._updates.get(writer, ())
            base = self._base.get(writer)
            times = ", ".join(f"{r.timestamp:g}" for r in recs)
            prefix = f"⊕{base.count}" if base is not None else ""
            parts.append(f"{writer}:{self.count(writer)}{prefix}({times})")
        return f"<EVV {' '.join(parts) or 'empty'} [{self._metadata:g}]>"

    # --------------------------------------------------------- construction
    @classmethod
    def from_updates(cls, records: Iterable[UpdateRecord], *,
                     last_consistent_time: float = 0.0) -> "ExtendedVersionVector":
        """Build a vector by applying records grouped per writer in seq order."""
        vector = cls(last_consistent_time=last_consistent_time)
        grouped: Dict[str, List[UpdateRecord]] = {}
        for record in records:
            grouped.setdefault(record.writer, []).append(record)
        # Apply per writer in sequence order; interleave writers deterministically.
        for writer in sorted(grouped):
            for record in sorted(grouped[writer], key=_BY_SEQ):
                vector = vector.apply(record)
        return vector

