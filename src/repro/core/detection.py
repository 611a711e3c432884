"""Inconsistency detection (paper Section 4.3).

The detection module gives IDEA its ``detect(update)`` API: after a write the
issuing node exchanges *version digests* with the other members of the
object's top layer; comparing the digests against the local replica yields
"success" (no inconsistency) or "fail" (conflict detected) plus, through the
extended information carried in the digests, the error triple and consistency
level of Section 4.4.

A digest carries, per writer, the :class:`~repro.versioning.extended_vector
.WriterBase` fold of its updates — ``(count, cumulative metadata, last
timestamp)``, the same summary a checkpoint holds.  Because every writer's
updates are sequenced, the *reference consistent state* (the merged image a
resolution round would produce) can be reconstructed exactly from a set of
digests: per writer take the fold with the highest count, then sum the
cumulative metadata.  Each replica's triple
is then measured against that reference, exactly as the worked example of
Figure 4 measures replica ``a`` against reference ``b``.  The bottom
layer's gossip sweep (:mod:`repro.overlay.gossip`) ships the same digest, so
a replica has one summary format.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dataclass_replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.config import ConsistencyMetricSpec, MetricWeights
from repro.core.quantify import consistency_level
from repro.transport import Message
from repro.store.replica import Replica
from repro.versioning.extended_vector import (
    ErrorTriple,
    ExtendedVersionVector,
    WriterBase,
)
from repro.versioning.values import frozen_value
from repro.versioning.version_vector import DIGEST_BYTES, VersionVector

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.runtime.digest_cache import DigestCache


PROTOCOL = "idea.detection"


@frozen_value
class VersionDigest:
    """Compact description of one replica's extended version vector.

    ``writers`` holds one ``(writer, WriterBase)`` pair per writer, sorted
    by writer: each a fold of that writer's updates ``1..count``.
    ``metadata`` sums their ``cum_metadata`` in that order, as
    :func:`build_reference` does, so a digest has no numerical error to itself.
    """

    object_id: str
    node_id: str
    issued_at: float
    writers: Tuple[Tuple[str, WriterBase], ...]
    metadata: float
    last_consistent_time: float
    #: the writers' summed counts.  A function of ``writers``, so not
    #: compared; each builder sums it in the loop that builds ``writers``
    total: int = field(compare=False, repr=False)
    #: memo of :meth:`counts`; a function of ``writers`` alone, so
    #: ``dataclasses.replace`` rightly carries it along
    _counts: Optional[VersionVector] = field(default=None, compare=False,
                                             repr=False)

    def counts(self) -> VersionVector:
        # Digests are immutable and compared often (conflict checks, triple
        # computation); memoise the projection.  Writer counts are positive
        # by construction, so the validated constructor can be bypassed.
        cached = self._counts
        if cached is None:
            cached = VersionVector._from_trusted(
                {w: s.count for w, s in self.writers})
            object.__setattr__(self, "_counts", cached)
        return cached

    def latest_update_time(self) -> float:
        times = [s.last_timestamp for _, s in self.writers]
        return max(times) if times else self.last_consistent_time

    @classmethod
    def from_vector(cls, object_id: str, node_id: str, vector: ExtendedVersionVector,
                    issued_at: float) -> "VersionDigest":
        writers = []
        total = 0
        metadata = 0.0
        for writer in vector.writers():
            # Fold the retained records onto the writer's checkpoint base
            # (the empty base for untruncated vectors) — one fold
            # implementation for checkpoint ⊕ tail and plain histories.
            base = vector.writer_base(writer) or WriterBase.EMPTY
            folded = base.fold(vector.updates_from(writer))
            writers.append((writer, folded))
            total += folded.count
            metadata += folded.cum_metadata
        return cls(object_id=object_id, node_id=node_id, issued_at=issued_at,
                   writers=tuple(writers), metadata=metadata,
                   last_consistent_time=vector.last_consistent_time,
                   total=total)

    @classmethod
    def from_replica(cls, replica: Replica, issued_at: float) -> "VersionDigest":
        return cls.from_vector(replica.object_id, replica.node_id, replica.vector,
                               issued_at)


@dataclass(frozen=True)
class ReferenceState:
    """The reconstructed reference consistent state for an object."""

    counts: VersionVector
    metadata: float
    latest_update_time: float

    def triple_for(self, digest: VersionDigest) -> ErrorTriple:
        numerical = abs(self.metadata - digest.metadata)
        order = float(self.counts.order_distance(digest.counts()))
        staleness = max(0.0, self.latest_update_time - digest.last_consistent_time)
        return ErrorTriple(numerical=numerical, order=order, staleness=staleness)


@frozen_value
class DetectionOutcome:
    """Result of ``detect(update)`` at one node."""

    object_id: str
    node_id: str
    #: the paper's API value: True = "success" (no inconsistency), False = "fail"
    success: bool
    #: consistency level of the local replica against the reference state
    level: float
    triple: ErrorTriple
    #: node ids whose digests disagreed with the local replica
    conflicting_peers: Tuple[str, ...]
    evaluated_at: float


def build_reference(digests: Iterable[VersionDigest]) -> ReferenceState:
    """Reconstruct the merged reference state from a set of digests."""
    best: Dict[str, WriterBase] = {}
    best_get = best.get
    for digest in digests:
        for writer, summary in digest.writers:
            current = best_get(writer)
            if current is None or summary.count > current.count:
                best[writer] = summary
    counts_map: Dict[str, int] = {}
    metadata = 0.0
    latest: Optional[float] = None
    for writer, summary in best.items():
        counts_map[writer] = summary.count
        metadata += summary.cum_metadata
        if latest is None or summary.last_timestamp > latest:
            latest = summary.last_timestamp
    return ReferenceState(counts=VersionVector._from_trusted(counts_map),
                          metadata=metadata,
                          latest_update_time=0.0 if latest is None else latest)


def evaluate_group(vectors: Mapping[str, ExtendedVersionVector], *,
                   object_id: str, metric: ConsistencyMetricSpec,
                   weights: MetricWeights, now: float) -> Dict[str, Tuple[ErrorTriple, float]]:
    """Evaluate every replica in a group against their merged reference.

    This is the ground-truth evaluation the experiment harness samples every
    five seconds for Figures 7, 8 and 10: ``{node: (triple, level)}``.
    """
    digests = {node: VersionDigest.from_vector(object_id, node, vec, now)
               for node, vec in vectors.items()}
    reference = build_reference(digests.values())
    out: Dict[str, Tuple[ErrorTriple, float]] = {}
    for node, digest in digests.items():
        triple = reference.triple_for(digest)
        out[node] = (triple, consistency_level(triple, metric, weights))
    return out


class DetectionService:
    """Per-node detection component exchanging digests with top-layer peers."""

    def __init__(self, node, *, object_id: str, metric: ConsistencyMetricSpec,
                 weights: MetricWeights,
                 top_layer_provider: Callable[[], Sequence[str]],
                 replica: Replica,
                 on_remote_digest: Optional[Callable[[VersionDigest], None]] = None,
                 digest_cache: "DigestCache") -> None:
        """
        Parameters
        ----------
        node:
            The :class:`~repro.transport.endpoint.ProtocolEndpoint` hosting this
            service (a simulated or live node).
        top_layer_provider:
            Returns the current top-layer membership for the object.
        replica:
            The local replica of the object (never rebound).
        on_remote_digest:
            Invoked whenever a digest arrives from a peer (after the cache is
            updated); the middleware uses it to re-evaluate consistency and
            consult the adaptation controller.
        digest_cache:
            Node-level incremental digest builder (from the
            :class:`~repro.runtime.NodeRuntime`); only a changed replica
            revision reaches it.
        """
        self.node = node
        self.object_id = object_id
        self._top_layer_provider = top_layer_provider
        self.replica = replica
        self._on_remote_digest = on_remote_digest
        self._digest_cache = digest_cache
        #: (replica revision, digest) of the last cache answer: an unchanged
        #: replica is answered here, counted as the cache hit it is
        self._local_revision = -1
        self._local: Optional[VersionDigest] = None
        #: peer node_id -> freshest digest received
        self._peer_digests: Dict[str, VersionDigest] = {}
        self._detections_run = 0
        #: bumped on every peer-table / metric / weight mutation; keys the
        #: evaluation memo below
        self._peer_version = 0
        #: running sum of every cached peer digest's total update count;
        #: because the reference envelope dominates each peer pointwise,
        #: "every peer equals the local replica" collapses to the O(1) test
        #: ``sum == len(peers) * local_total`` — detect() walks the peer
        #: table only when somebody actually diverged
        self._peer_total_sum = 0
        #: peer ids in sorted order (rebuilt only when membership changes),
        #: so conflict enumeration does not re-sort per detection
        self._sorted_peers: Optional[Tuple[str, ...]] = None
        #: per-source count vectors fed from out-of-band digests (the
        #: bottom-layer gossip sweep); together with the peer digests these
        #: are the sources the stability frontier is the minimum over
        self._gossip_counts: Dict[str, VersionVector] = {}
        #: (peer version, local digest id, required tuple) -> frontier memo;
        #: the frontier rides the same digest table as the max envelope and
        #: is recomputed at most once per table change
        self._frontier_memo: Optional[tuple] = None
        #: (local digest, peer version, level, numerical, order, staleness)
        #: of the last evaluation.  Digests are immutable and the local
        #: digest is revision-memoised, so identity + version captures every
        #: input of the level computation — client traffic re-reading an
        #: unchanged replica costs a tuple compare, not an evaluation.
        self._eval_memo: Optional[tuple] = None
        # Incremental reference envelope (see _evaluate): the per-writer max
        # summary over the local digest and every cached peer digest, folded
        # forward one digest at a time, and the three scalars of it that the
        # error triple reads — total count, summed metadata, latest update.
        self._ref_valid = False
        self._ref_best: Dict[str, WriterBase] = {}
        self._ref_total = 0
        self._ref_metadata = 0.0
        self._ref_latest = 0.0
        self._ref_local: Optional[VersionDigest] = None
        self.set_metric(metric)
        self.set_weights(weights)
        #: message type string built once instead of per announce
        self._digest_msg_type = f"idea_digest:{object_id}"
        node.register_handler(self._digest_msg_type, self._handle_digest)

    def local_digest(self, now: Optional[float] = None) -> VersionDigest:
        """The replica's digest; only a changed revision reaches the cache.

        The one memo of the replica's summary: the top-layer announce and
        the deployment's gossip sweep both ship what it returns.  ``now`` is
        the caller's own clock reading, for the caller that compares the
        digest's stamp with it (:meth:`announce_write`).
        """
        replica = self.replica
        revision = replica.revision
        if revision == self._local_revision:
            self._digest_cache.hits += 1
            return self._local
        digest = self._local = self._digest_cache.local_digest(
            self.object_id, replica,
            self.node.clock.now if now is None else now)
        self._local_revision = revision
        return digest

    # ---------------------------------------------------------------- state
    @property
    def peer_digests(self) -> Dict[str, VersionDigest]:
        return dict(self._peer_digests)

    @property
    def detections_run(self) -> int:
        return self._detections_run

    def set_weights(self, weights: MetricWeights) -> None:
        self.weights = weights
        total = weights.numerical + weights.order + weights.staleness
        #: Formula 1's normalised weights, divided once per change
        self._weights = (weights.numerical / total, weights.order / total,
                         weights.staleness / total)
        self._eval_memo = None

    def set_metric(self, metric: ConsistencyMetricSpec) -> None:
        self.metric = metric
        self._maxima = (metric.max_numerical, metric.max_order,
                        metric.max_staleness)
        self._eval_memo = None

    # ------------------------------------------------------------- exchange
    def announce_write(self) -> int:
        """Send the local digest to every other top-layer member.

        Returns the number of detection messages sent.  This is the message
        exchange that lets the write's conflicts be caught "in a timely
        manner" in the top layer.
        """
        node = self.node
        # One clock reading, handed to the rebuild: on a wall clock a second
        # reading differs, and every fresh digest would be copied below.
        now = node.clock.now
        digest = self.local_digest(now)
        if digest.issued_at != now:
            # An unchanged replica announced again carries its old issue
            # time; peers order digests by it, so stamp the current time
            # before shipping.
            digest = dataclass_replace(digest, issued_at=now)
        node_id = node.node_id
        peers = [p for p in self._top_layer_provider() if p != node_id]
        if peers:
            # One shared payload for the whole top-layer broadcast.
            node.send_many(peers, protocol=PROTOCOL,
                           msg_type=self._digest_msg_type,
                           payload={"digest": digest},
                           size_bytes=DIGEST_BYTES)
        return len(peers)

    def _handle_digest(self, message: Message) -> None:
        digest: VersionDigest = message.payload["digest"]
        self.ingest_digest(digest)
        if self._on_remote_digest is not None:
            self._on_remote_digest(digest)

    def ingest_digest(self, digest: VersionDigest) -> None:
        """Add a digest obtained out-of-band (e.g. from the bottom layer sweep)."""
        existing = self._peer_digests.get(digest.node_id)
        if existing is None or digest.issued_at >= existing.issued_at:
            self._peer_digests[digest.node_id] = digest
            self._peer_version += 1
            # A live digest supersedes any out-of-band counts (gossip, or
            # the frozen last-known counts of a peer that crashed and
            # recovered) — otherwise a stale minimum pins the frontier.
            if self._gossip_counts.pop(digest.node_id, None) is not None:
                self._frontier_memo = None
            if existing is None or self._sorted_peers is None:
                self._sorted_peers = None  # membership changed: rebuild lazily
            else:
                self._peer_total_sum += digest.total - existing.total
            self._fold_digest(digest, existing)

    def observe_counts(self, node_id: str, counts: VersionVector) -> None:
        """Record a peer's per-writer counts seen outside the digest exchange.

        The gossip sweep reaches nodes the top-layer fan-out never talks to;
        piggybacking its count vectors here widens the set of sources the
        stability frontier can take its minimum over — no new messages.
        Counts only ever grow, so the freshest observation wins.
        """
        if node_id == self.node.node_id or node_id in self._peer_digests:
            return
        existing = self._gossip_counts.get(node_id)
        if existing is None or counts.total_updates() >= existing.total_updates():
            self._gossip_counts[node_id] = counts
            self._frontier_memo = None

    def forget_peer(self, node_id: str) -> None:
        # Membership state is rebuilt lazily rather than adjusted
        # incrementally here.
        #
        # The peer's last-known counts are *retained* as an out-of-band
        # frontier source: under crash-stop its replica state survives the
        # crash, so everything at or below those counts is still known to it
        # and may keep being truncated — the frontier stalls at the crashed
        # peer's counts instead of collapsing to "unknown" forever.
        existing = self._peer_digests.pop(node_id, None)
        if existing is not None:
            stashed = self._gossip_counts.get(node_id)
            if stashed is None or existing.total > stashed.total_updates():
                self._gossip_counts[node_id] = existing.counts()
        self._sorted_peers = None
        self._peer_version += 1
        self._ref_valid = False
        self._frontier_memo = None

    def _refresh_peer_index(self) -> Tuple[str, ...]:
        """Rebuild the sorted peer list and total-count sum after membership
        changes (amortised across the detections in between)."""
        peers = self._peer_digests
        sorted_peers = self._sorted_peers = tuple(sorted(peers))
        self._peer_total_sum = sum(d.total for d in peers.values())
        return sorted_peers

    # ---------------------------------------------------- stability frontier
    def stability_frontier(self, required_sources: Optional[Iterable[str]] = None
                           ) -> Optional[VersionVector]:
        """The per-writer minimum over every replica's known counts.

        Updates at or below the frontier are known-received by all observed
        replicas (the classic Parker-et-al. stability argument), so they can
        be checkpointed and garbage-collected without changing any
        observable behaviour.  The sources are exactly the count vectors the
        node already holds — top-layer version digests plus gossip-observed
        counts — piggybacked on existing traffic; no new messages.

        ``required_sources`` names the replicas that *must* have been
        observed (normally every other participant of the object); if any
        has never been heard from the answer is ``None`` — truncating on a
        partial view could fold records a silent replica still needs.
        Without ``required_sources`` the minimum covers only the sources at
        hand, which is safe for inspection but not for GC.

        Like the max envelope, the frontier rides the digest table: it is
        memoised on (local digest, peer-table version, gossip observations)
        and recomputed at most once per change, amortised across the
        truncation period.
        """
        local_digest = self.local_digest()
        if required_sources is None:
            required = None
        else:
            # Accept any iterable; skip the re-sort for pre-sorted input
            # (the deployment sweep passes one shared sorted list per
            # object, so steady-state memo hits stay O(n)).
            required = tuple(required_sources)
            if not all(a <= b for a, b in zip(required, required[1:])):
                required = tuple(sorted(required))
        memo = self._frontier_memo
        if (memo is not None and memo[0] is local_digest
                and memo[1] == self._peer_version and memo[2] == required):
            return memo[3]
        sources: List[VersionVector] = []
        complete = True
        if required is not None:
            for node_id in required:
                if node_id == self.node.node_id:
                    continue
                digest = self._peer_digests.get(node_id)
                if digest is not None:
                    sources.append(digest.counts())
                    continue
                counts = self._gossip_counts.get(node_id)
                if counts is None:
                    complete = False
                    break
                sources.append(counts)
        else:
            sources.extend(d.counts() for d in self._peer_digests.values())
            sources.extend(self._gossip_counts.values())
        if not complete:
            result: Optional[VersionVector] = None
        else:
            frontier = local_digest.counts().as_dict()
            for counts in sources:
                if not frontier:
                    break
                count = counts.count
                frontier = {w: c if c <= count(w) else count(w)
                            for w, c in frontier.items() if count(w) > 0}
            result = VersionVector._from_trusted(frontier)
        self._frontier_memo = (local_digest, self._peer_version, required, result)
        return result

    # ---------------------------------------------------- reference envelope
    def _fold_digest(self, new: VersionDigest,
                     old: Optional[VersionDigest]) -> None:
        """Fold a replaced source digest into the incremental reference.

        The envelope stays exact as long as every source only *grows*: a
        writer's summary is a pure function of its update count (per-writer
        updates are sequenced), so replacing a source whose counts all grew
        can only raise per-writer maxima, and ``max(envelope, new)`` equals a
        full rebuild.  A source that shrank invalidates the envelope; the
        next evaluation rebuilds it from every cached digest.

        A replacement usually lists the writers of the digest it replaces,
        in the same order, with one of them grown.  That case is one aligned
        pass which skips every writer whose pair is the very same object
        (the simulator ships the cache's interned pairs; ``live.wire``
        decodes an unchanged writer to the pair it decoded last) or whose
        count is unchanged: ``old`` is already merged, so only a grown count
        can raise a maximum.  Anything
        else — a writer added, dropped or reordered — takes the general walk.
        """
        if not self._ref_valid:
            return
        fold = self._fold_writer
        if old is not None:
            writers = new.writers
            replaced = old.writers
            if len(writers) == len(replaced):
                best = self._ref_best
                for pair, old_pair in zip(writers, replaced):
                    if pair is old_pair:
                        continue
                    writer, summary = pair
                    if writer != old_pair[0]:
                        break  # misaligned: the general walk decides
                    count = summary.count
                    grown = count - old_pair[1].count
                    if grown > 0:
                        # _fold_writer in line; ``old`` is merged, so the
                        # writer already has a maximum
                        current = best[writer]
                        if count > current.count:
                            self._ref_metadata -= current.cum_metadata
                            self._ref_total += count - current.count
                            self._ref_metadata += summary.cum_metadata
                            best[writer] = summary
                            if summary.last_timestamp > self._ref_latest:
                                self._ref_latest = summary.last_timestamp
                    elif grown < 0:
                        self._ref_valid = False
                        return
                else:
                    return
            new_map = dict(writers)
            for writer, summary in replaced:
                replacement = new_map.get(writer)
                if replacement is None or replacement.count < summary.count:
                    self._ref_valid = False
                    return
        for writer, summary in new.writers:
            fold(writer, summary)

    def _fold_writer(self, writer: str, summary: WriterBase) -> None:
        """Raise one writer's maximum (and the scalars) to ``summary``."""
        current = self._ref_best.get(writer)
        if current is None:
            self._ref_total += summary.count
            self._ref_metadata += summary.cum_metadata
        elif summary.count > current.count:
            self._ref_metadata -= current.cum_metadata
            self._ref_total += summary.count - current.count
            self._ref_metadata += summary.cum_metadata
        else:
            return
        self._ref_best[writer] = summary
        if summary.last_timestamp > self._ref_latest:
            self._ref_latest = summary.last_timestamp

    def _rebuild_envelope(self, local_digest: VersionDigest) -> None:
        self._ref_best = {}
        self._ref_total = 0
        self._ref_metadata = 0.0
        self._ref_latest = 0.0
        fold = self._fold_writer
        for digest in (local_digest, *self._peer_digests.values()):
            for writer, summary in digest.writers:
                fold(writer, summary)
        self._ref_local = local_digest
        self._ref_valid = True

    def _evaluate(self, local_digest: VersionDigest) -> tuple:
        """The memo tuple ``(local digest, peer version, level, numerical,
        order, staleness)`` of the local replica against the envelope.

        Equal to ``build_reference([local] + peers).triple_for(local)`` fed
        to :func:`~repro.core.quantify.consistency_level` — the reference
        functions the tests hold this against — but read off the three
        maintained scalars: no ``ReferenceState``, ``VersionVector`` or
        ``ErrorTriple`` is built.  The envelope merges the local digest, so
        it dominates it pointwise and the order error (the two-way count
        gap) is the exact integer ``total(envelope) − total(local)``.
        Formula 1 keeps ``consistency_level``'s operations in their order,
        so the float is the same float.
        """
        memo = self._eval_memo
        version = self._peer_version
        if memo is not None and memo[0] is local_digest and memo[1] == version:
            return memo
        if self._ref_valid and local_digest is not self._ref_local:
            self._fold_digest(local_digest, self._ref_local)
            self._ref_local = local_digest
        if not self._ref_valid:
            self._rebuild_envelope(local_digest)
        numerical = abs(self._ref_metadata - local_digest.metadata)
        order = float(self._ref_total - local_digest.total)
        staleness = max(0.0, self._ref_latest
                        - local_digest.last_consistent_time)
        max_n, max_o, max_s = self._maxima
        weight_n, weight_o, weight_s = self._weights
        n = 0.0 if numerical <= 0 else numerical / max_n
        o = 0.0 if order <= 0 else order / max_o
        s = 0.0 if staleness <= 0 else staleness / max_s
        level = 1.0 - ((n if n < 1.0 else 1.0) * weight_n
                       + (o if o < 1.0 else 1.0) * weight_o
                       + (s if s < 1.0 else 1.0) * weight_s)
        level = min(1.0, max(0.0, level))
        memo = self._eval_memo = (local_digest, version, level,
                                  numerical, order, staleness)
        return memo

    # -------------------------------------------------------------- detect()
    def detect(self) -> DetectionOutcome:
        """The paper's ``detect(update)`` API evaluated at this node.

        Compares the local replica against every cached peer digest, returns
        "success" when no difference exists and otherwise "fail" together
        with the consistency level of the local replica measured against the
        reconstructed reference state.
        """
        self._detections_run += 1
        local_digest = self.local_digest()
        _, _, level, numerical, order, staleness = self._evaluate(local_digest)

        local_total = local_digest.total
        # The envelope dominates the local counts, so "reference == local"
        # collapses to an exact integer total comparison; and because every
        # peer is likewise dominated pointwise, "every peer equals local"
        # collapses to the maintained total sum matching exactly.  Only when
        # somebody diverged does the per-peer walk below run — and then a
        # peer whose total differs has diverged without looking further;
        # only equal totals need the count vectors compared.
        sorted_peers = self._sorted_peers
        if sorted_peers is None:
            sorted_peers = self._refresh_peer_index()
        reference_matches = self._ref_total == local_total
        if (reference_matches
                and self._peer_total_sum == local_total * len(sorted_peers)):
            conflicting: Tuple[str, ...] = ()
        else:
            peer_digests = self._peer_digests
            local_counts = None
            diverged = []
            for peer in sorted_peers:
                digest = peer_digests[peer]
                if digest.total == local_total:
                    if local_counts is None:
                        local_counts = local_digest.counts()
                    if digest.counts() == local_counts:
                        continue
                diverged.append(peer)
            conflicting = tuple(diverged)

        return DetectionOutcome(
            self.object_id, self.node.node_id,
            not conflicting and reference_matches, level,
            ErrorTriple(numerical, order, staleness),
            conflicting, self.node.clock.now)

    def current_level(self) -> float:
        """Consistency level without counting as a detection run."""
        return self._evaluate(self.local_digest())[2]

    def local_counts(self) -> VersionVector:
        """The local replica's current per-writer counts (cached digest view)."""
        return self.local_digest().counts()
