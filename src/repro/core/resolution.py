"""Background and active inconsistency resolution (paper Section 4.5).

Both mechanisms share the same *resolution procedure* (the paper's phase
two): the initiator sequentially visits every other top-layer member to
collect its version information, merges everything into a single consistent
image, applies the configured policy to the concurrent (conflicting) updates,
and then informs all members, which install the missing updates and mark
themselves consistent.  Updates are blocked on a member from the moment it is
visited until it installs the resolved image, preventing writes based on an
inconsistent copy.  Both messages carry a :class:`VectorDelta`: a member
answers with its vector above the initiator's per-writer counts, which the
initiator rebuilds against its own snapshot, and the install carries the
merged image above what every collected member holds.

*Background resolution* runs the procedure periodically without user
involvement.  *Active resolution* is user-triggered and adds a first phase: a
parallel *call-for-attention* to every top-layer member; if another initiator
has already called for attention, this initiator backs off for a random
window and cancels its attempt if it observes the other resolution finishing
first (Section 4.5.2).

Delay accounting matches the paper's Table 2: ``phase1_delay`` is the cost of
dispatching the parallel call-for-attention messages (sub-millisecond), and
``phase2_delay`` is the sequential collection + installation time, roughly
one wide-area round trip plus processing per visited member.  The initiator
does not wait for the phase-1 acknowledgements (an acking member write-blocks
itself); phase 2's sequential collect visits are what the round waits on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.policies import PolicyDecision, ResolutionPolicy
from repro.store.replica import Replica
from repro.transport import (Cancellable, Message, Process, RPCError, sleep,
                             unwrap_response)
from repro.versioning.extended_vector import (ExtendedVersionVector,
                                              TruncatedHistoryError,
                                              UpdateRecord, VectorDelta)


PROTOCOL_ACTIVE = "idea.resolution.active"
PROTOCOL_BACKGROUND = "idea.resolution.background"
#: per-message local dispatch overhead (seconds) charged when a simulated
#: initiator fans out the phase-1 call-for-attention; ~0.15 ms per member
#: matches the sub-millisecond phase-1 cost reported in Table 2.
ATTENTION_DISPATCH_OVERHEAD = 0.00015


@dataclass
class ResolutionResult:
    """Outcome and timing of one resolution round."""

    object_id: str
    initiator: str
    kind: str                       # "active" | "background"
    started_at: float
    finished_at: float
    phase1_delay: float
    phase2_delay: float
    members: Tuple[str, ...]
    merged_updates: int
    invalidated: Tuple[Tuple[str, int], ...]
    aborted: bool = False
    abort_reason: str = ""

    @property
    def total_delay(self) -> float:
        return self.finished_at - self.started_at

    @property
    def succeeded(self) -> bool:
        return not self.aborted


def merge_vectors(vectors: Sequence[ExtendedVersionVector], *,
                  consistent_time: Optional[float] = None) -> ExtendedVersionVector:
    """Merge any number of extended vectors into one consistent image.

    This is what the resolution initiator computes after collecting version
    information from every top-layer member: the union of all known updates.
    Each pairwise merge stamps ``consistent_time``; only a lone vector is
    stamped on its own.
    """
    if not vectors:
        raise ValueError("merge_vectors requires at least one vector")
    merged = vectors[0]
    for vec in vectors[1:]:
        merged = merged.merge(vec, consistent_time=consistent_time)
    if consistent_time is not None and len(vectors) == 1:
        merged = merged.with_consistent_time(consistent_time)
    return merged


class ResolutionManager:
    """Per-node resolution component (any node may act as initiator)."""

    #: back-off window (seconds) when two initiators collide in phase 1; the
    #: middleware's auto-trigger jitter uses the same window
    BACKOFF_WINDOW = 0.5
    #: per-member timeout (seconds) on the initiator's phase-2 collect RPC: a
    #: member that crashed or got partitioned away is skipped after this long
    COLLECT_TIMEOUT = 10.0
    #: how long (seconds) a visited member stays write-blocked waiting for the
    #: initiator's install before presuming the initiator crashed
    MEMBER_BLOCK_TIMEOUT = 30.0

    def __init__(self, node, *, object_id: str, policy: ResolutionPolicy,
                 top_layer_provider: Callable[[], Sequence[str]],
                 replica: Replica, backoff_rng,
                 on_resolved: Optional[Callable[[ResolutionResult], None]] = None
                 ) -> None:
        self.node = node
        self.object_id = object_id
        self.policy = policy
        self._top_layer_provider = top_layer_provider
        self.replica = replica
        self._on_resolved = on_resolved
        self._round_counter = itertools.count(1)
        self._resolving = False
        #: initiators whose call-for-attention we have acknowledged and whose
        #: resolution has not yet completed
        self._yielded_to: Optional[str] = None
        #: when the most recent resolved image was installed here (another
        #: initiator's round completing counts as "their notice" for back-off)
        self._last_install_at: float = -float("inf")
        #: the node's back-off stream, shared by all its objects
        self._backoff_rng = backoff_rng
        #: bumped whenever the member-side write block is released or renewed;
        #: outstanding stale-block guard events check it and no-op when stale
        self._block_guard_seq = 0
        #: unfired guard handles by seq (a firing guard pops itself first)
        self._block_guards: Dict[int, Cancellable] = {}
        self.history: List[ResolutionResult] = []

        node.register_rpc(f"idea_attention:{object_id}", self._rpc_attention)
        node.register_rpc(f"idea_collect:{object_id}", self._rpc_collect)
        node.register_handler(f"idea_install:{object_id}", self._handle_install)
        node.fail_hooks.append(self._on_node_failed)

    # ------------------------------------------------------------ rpc hooks
    def _rpc_attention(self, args: dict) -> dict:
        """Phase-1 call-for-attention handler.

        Returns a positive acknowledgement unless this node has itself begun
        initiating a resolution (contention), in which case the reply is
        negative and the caller backs off.
        """
        initiator = args["initiator"]
        if self._resolving and initiator != self.node.node_id:
            return {"ack": False, "busy_with": self.node.node_id}
        self._yielded_to = initiator
        self.replica.block_writes()
        if initiator != self.node.node_id:
            self._arm_block_guard()
        return {"ack": True}

    def _rpc_collect(self, args: dict) -> dict:
        """Phase-2 collection handler: the local vector above the
        initiator's ``counts``."""
        replica = self.replica
        replica.block_writes()
        if args.get("initiator") != self.node.node_id:
            self._arm_block_guard()
        return {"delta": replica.vector.delta_above(args["counts"])}

    def _handle_install(self, message: Message) -> None:
        """Install the resolved consistent image pushed by the initiator."""
        payload = message.payload
        merged: VectorDelta = payload["merged"]
        invalidated: List[Tuple[str, int]] = payload["invalidated"]
        replica = self.replica
        replica.install_merged(merged, now=self.node.clock.now)
        if invalidated:
            replica.invalidate_updates(list(invalidated))
        replica.unblock_writes()
        self._yielded_to = None
        self._block_guard_seq += 1
        self._last_install_at = self.node.clock.now

    # --------------------------------------------------- failure cleanliness
    def _arm_block_guard(self) -> None:
        """Bound how long a remote initiator may keep this replica blocked.

        A member visited by an initiator that then crashes (or lands on the
        far side of a partition) would otherwise stay write-blocked forever;
        after ``MEMBER_BLOCK_TIMEOUT`` with no install the member presumes
        the initiator dead and unblocks itself.
        """
        self._block_guard_seq += 1
        seq = self._block_guard_seq
        self._block_guards[seq] = self.node.clock.call_after(
            self.MEMBER_BLOCK_TIMEOUT, self._release_stale_block, arg=seq,
            label=f"{self.node.node_id}:block-guard:{self.object_id}")

    def _release_stale_block(self, seq: int) -> None:
        del self._block_guards[seq]
        if seq != self._block_guard_seq or not self.node.alive:
            return  # an install arrived, a newer visit re-armed, or we died
        if self._resolving:
            # This node's *own* round now owns the write block (it may have
            # started after the remote initiator died); that round unblocks
            # the replica itself when it finishes.
            return
        self._yielded_to = None
        replica = self.replica
        if replica.write_blocked:
            replica.unblock_writes()

    def _on_node_failed(self) -> None:
        """Crash-stop reset: a dead node holds no round state or write block."""
        self._resolving = False
        self._yielded_to = None
        self._block_guard_seq += 1
        replica = self.replica
        if replica.write_blocked:
            replica.unblock_writes()

    def close(self) -> None:
        """Cancel every unfired block guard (deployment teardown)."""
        while self._block_guards:
            self._block_guards.popitem()[1].cancel()

    # ------------------------------------------------------------ initiation
    @property
    def resolving(self) -> bool:
        return self._resolving

    def members(self) -> List[str]:
        """Current top-layer membership, always including this node."""
        members = list(self._top_layer_provider())
        if self.node.node_id not in members:
            members.append(self.node.node_id)
        return members

    def start_background_resolution(self) -> Process:
        """Run one background-resolution round as a simulation process."""
        return self.node.clock.spawn(self._background_round(),
                                   label=f"bg-resolution:{self.node.node_id}")

    def start_active_resolution(self, *, suppression_jitter: float = 0.0) -> Process:
        """Run one user-triggered active-resolution round (two phases).

        ``suppression_jitter`` delays the attempt by a random amount in
        ``[0, suppression_jitter]`` seconds before anything is sent; if some
        other initiator's call-for-attention arrives during that window the
        attempt is cancelled ("if one receives another's notice before it
        tries, it will simply cancel its own resolution process", §4.5.2).
        The jitter is not part of the measured phase delays.
        """
        return self.node.clock.spawn(
            self._active_round(suppression_jitter=suppression_jitter),
            label=f"active-resolution:{self.node.node_id}")

    # --------------------------------------------------------------- rounds
    def _background_round(self):
        started = self.node.clock.now
        members = self.members()
        if not self.node.alive:
            return self._aborted("background", started, members,
                                 "initiator offline")
        if self._resolving:
            return self._aborted("background", started, members,
                                 "already resolving")
        self._resolving = True
        try:
            phase2 = yield from self._resolution_procedure(members, PROTOCOL_BACKGROUND)
        finally:
            self._resolving = False
        if phase2["aborted"]:
            return self._aborted("background", started, members,
                                 "initiator crashed mid-round")
        result = ResolutionResult(
            object_id=self.object_id, initiator=self.node.node_id,
            kind="background", started_at=started, finished_at=self.node.clock.now,
            phase1_delay=0.0, phase2_delay=phase2["delay"], members=tuple(members),
            merged_updates=phase2["merged_updates"],
            invalidated=tuple(phase2["invalidated"]))
        self._finish(result)
        return result

    def _active_round(self, suppression_jitter: float = 0.0):
        started = self.node.clock.now

        if suppression_jitter > 0:
            jitter = float(self._backoff_rng.uniform(0.0, suppression_jitter))
            yield sleep(jitter)
            if self._yielded_to is not None and self._yielded_to != self.node.node_id:
                # Another initiator's call-for-attention arrived first.
                return self._aborted("active", started, self.members(),
                                     f"suppressed by {self._yielded_to}")
            if self._last_install_at >= started:
                # Someone else's resolution already completed while we were
                # waiting; nothing left to resolve.
                return self._aborted("active", started, self.members(),
                                     "resolved by another initiator during back-off")

        if not self.node.alive:
            return self._aborted("active", started, self.members(),
                                 "initiator crashed before phase 1")

        members = self.members()
        peers = [m for m in members if m != self.node.node_id]

        if self._yielded_to is not None and self._yielded_to != self.node.node_id:
            # Someone else already called for attention: back off and retry
            # after a random window unless their resolution completes first.
            backoff = float(self._backoff_rng.uniform(0.0, self.BACKOFF_WINDOW))
            yield sleep(backoff)
            if self._yielded_to is not None and self._yielded_to != self.node.node_id:
                return self._aborted("active", started, members,
                                     f"suppressed by {self._yielded_to}")

        if self._resolving:
            return self._aborted("active", started, members, "already resolving")

        self._resolving = True
        try:
            # ----------------------------------------------------- phase one
            phase1_start = self.node.clock.now
            modelled = self.node.models_dispatch_cost
            for peer in peers:
                # Local dispatch cost: the calls go out in parallel, so the
                # measured phase-1 delay is the (tiny) serial send overhead,
                # modelled on a simulated node and real on a wall clock.
                if modelled:
                    yield sleep(ATTENTION_DISPATCH_OVERHEAD)
                self.node.request(
                    peer, f"idea_attention:{self.object_id}",
                    {"initiator": self.node.node_id},
                    protocol=PROTOCOL_ACTIVE, size_bytes=128)
            phase1_delay = self.node.clock.now - phase1_start

            # ----------------------------------------------------- phase two
            phase2 = yield from self._resolution_procedure(members, PROTOCOL_ACTIVE)
        finally:
            self._resolving = False

        if phase2["aborted"]:
            return self._aborted("active", started, members,
                                 "initiator crashed mid-round")
        result = ResolutionResult(
            object_id=self.object_id, initiator=self.node.node_id,
            kind="active", started_at=started, finished_at=self.node.clock.now,
            phase1_delay=phase1_delay, phase2_delay=phase2["delay"],
            members=tuple(members), merged_updates=phase2["merged_updates"],
            invalidated=tuple(phase2["invalidated"]))
        self._finish(result)
        return result

    def _resolution_procedure(self, members: Sequence[str], protocol: str):
        """The shared phase-2 procedure; returns timing and merge statistics.

        Failure-aware: each collect visit is bounded by
        ``COLLECT_TIMEOUT`` so a crashed/partitioned member is skipped
        rather than hanging the round, and if the *initiator itself* crashes
        mid-round the procedure reports an aborted phase instead of
        installing an image from beyond the grave.
        """
        phase2_start = self.node.clock.now
        local_replica = self.replica
        local_replica.block_writes()

        snapshot = local_replica.vector
        args = {"initiator": self.node.node_id,
                "counts": snapshot.counts().as_dict()}
        collected: Dict[str, ExtendedVersionVector] = {
            self.node.node_id: snapshot}
        # Sequentially visit every other member (the paper visits members one
        # by one, which is what gives the linear Formula 2/3 behaviour).
        for member in members:
            if member == self.node.node_id:
                continue
            if not self.node.alive:
                return {"delay": self.node.clock.now - phase2_start,
                        "merged_updates": 0, "invalidated": [],
                        "aborted": True}
            waiter = self.node.request(member, f"idea_collect:{self.object_id}",
                                       args, protocol=protocol, size_bytes=256,
                                       timeout=self.COLLECT_TIMEOUT)
            response = yield waiter
            try:
                collected[member] = unwrap_response(response)["delta"].rebuild(
                    snapshot)
            except (RPCError, TruncatedHistoryError, ValueError):
                # Member unreachable or the collect timed out (crash or
                # partition mid-round), or its reply does not fit the
                # snapshot; resolve among the rest.
                continue

        if not self.node.alive:
            return {"delay": self.node.clock.now - phase2_start,
                    "merged_updates": 0, "invalidated": [], "aborted": True}

        merged, decision, floors = self._merge_and_decide(
            list(collected.values()))
        invalidated = (list(decision.invalidated_keys)
                       if decision is not None and self.policy.discard_losers else [])

        # Inform every member (including self) of the consistent image: its
        # records above what every collected member holds, or above the
        # image's checkpoint when a member was not collected.  The
        # notifications go out back-to-back as one fan-out (a live transport
        # encodes the delta once for all of them); members install on receipt.
        image = merged.delta_above(
            floors if all(map(collected.__contains__, members)) else {})
        self.node.send_many(
            [member for member in members if member != self.node.node_id],
            protocol=protocol, msg_type=f"idea_install:{self.object_id}",
            payload={"merged": image, "invalidated": invalidated},
            size_bytes=1024)
        local_replica.install_merged(image, now=self.node.clock.now)
        if invalidated:
            local_replica.invalidate_updates(invalidated)
        local_replica.unblock_writes()

        return {
            "delay": self.node.clock.now - phase2_start,
            "merged_updates": merged.total_updates(),
            "invalidated": invalidated,
            "aborted": False,
        }

    # ------------------------------------------------------------- merging
    def _merge_and_decide(self, vectors: List[ExtendedVersionVector]
                          ) -> Tuple[ExtendedVersionVector, Optional[PolicyDecision],
                                     Dict[str, int]]:
        now = self.node.clock.now
        merged = merge_vectors(vectors, consistent_time=now)
        conflicting, floors = self._conflicting_updates(vectors)
        decision: Optional[PolicyDecision] = None
        if len({r.writer for r in conflicting}) > 1:
            decision = self.policy.resolve(sorted(conflicting, key=lambda r: r.key()))
        return merged, decision, floors

    @staticmethod
    def _conflicting_updates(vectors: List[ExtendedVersionVector]
                             ) -> Tuple[List[UpdateRecord], Dict[str, int]]:
        """Updates not yet known to every replica — the concurrent set — and
        per writer the count every replica holds.

        An update that every collected replica has already seen cannot be in
        conflict any more (its ordering was settled by a previous round); the
        remaining updates from different writers are mutually concurrent,
        matching the evaluation's assumption that fresh updates all conflict.

        Served from the per-writer counts: histories are seq-contiguous, so
        the universally known prefix of a writer is exactly the minimum
        count over the collected vectors, and the concurrent set is the
        records above it — O(writers × members + conflicts) instead of
        materialising every vector's full key set.  Records folded into a
        checkpoint are by definition below the stability frontier, hence
        below every count, hence never in this set.
        """
        counts = [vector.counts().as_dict() for vector in vectors]
        seen: Dict[Tuple[str, int], UpdateRecord] = {}
        floors: Dict[str, int] = {}
        for writer in sorted(set().union(*counts)):
            held = [count.get(writer, 0) for count in counts]
            known = floors[writer] = min(held)
            for vector, count in zip(vectors, held):
                if count > known:
                    for record in vector.updates_above(writer, known):
                        seen.setdefault(record.key(), record)
        return list(seen.values()), floors

    # ------------------------------------------------------------ finishing
    def _finish(self, result: ResolutionResult) -> None:
        self.history.append(result)
        if self._on_resolved is not None:
            self._on_resolved(result)

    def _aborted(self, kind: str, started: float, members: Sequence[str],
                 reason: str) -> ResolutionResult:
        result = ResolutionResult(
            object_id=self.object_id, initiator=self.node.node_id, kind=kind,
            started_at=started, finished_at=self.node.clock.now,
            phase1_delay=0.0, phase2_delay=0.0, members=tuple(members),
            merged_updates=0, invalidated=(), aborted=True, abort_reason=reason)
        self.history.append(result)
        return result
