"""TTL-bounded gossip for background (bottom-layer) inconsistency detection.

The paper's detection framework "uses gossip-based protocol to check in the
background any missed inconsistency by the top-layer" (Section 4.3), with a
TTL on the traversal of detection messages to bound the delay (Section
4.4.2).  The reproduction follows the lpbcast style: each round every
participating node sends its version digest to ``fanout`` uniformly chosen
peers; receivers compare its per-writer counts with their own replica's,
count any difference as a detection, and forward it with one hop less until
none are left.  The digest is the replica's
:class:`~repro.core.detection.VersionDigest`, the one the top layer
announces (§4.4.2 gossips the same version digests), so a replica has one
summary format and one memo.  A round stamps each node's digest once; the
TTL is the hop's, carried in the message payload beside it, so every hop of
that round re-sends the same digest object.  Peers are drawn by the
``overlay.gossip`` stream's :class:`~repro.sim.random.SubsetSampler`: one
sample per fan-out, the draws ``choice(len(peers), size=fanout,
replace=False)`` makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

from repro.bounds import real, whole
from repro.transport import Clock, Message, PeriodicTimer, Transport
from repro.versioning.version_vector import DIGEST_BYTES

if TYPE_CHECKING:  # pragma: no cover - typing only: core imports this module
    from repro.core.detection import VersionDigest


PROTOCOL = "overlay.gossip"


@dataclass
class GossipConfig:
    """Gossip parameters (defaults follow common lpbcast-style settings)."""

    round_period: float = 10.0
    fanout: int = 3
    ttl: int = 3

    def __post_init__(self) -> None:
        real("round_period", self.round_period, gt=0)
        whole("fanout", self.fanout, ge=1)
        whole("ttl", self.ttl, ge=1)


class GossipService:
    """Runs background gossip among a (typically bottom-layer) node set."""

    #: when a receiver's dedupe set exceeds this, sightings older than
    #: ``SEEN_HORIZON_ROUNDS`` round periods are swept out — digests cannot
    #: arrive that late, so dedupe behaviour is unchanged while the state
    #: stays bounded over arbitrarily long runs
    SEEN_SWEEP_THRESHOLD = 4096
    SEEN_HORIZON_ROUNDS = 8

    def __init__(self, clock: Clock, transport: Transport, *,
                 config: Optional[GossipConfig] = None,
                 membership: Callable[[str], Sequence[str]],
                 local_digest: Callable[[str, str], Optional[VersionDigest]],
                 on_digest: Optional[Callable[[str, VersionDigest], None]] = None) -> None:
        """
        Parameters
        ----------
        membership:
            ``membership(object_id)`` returns the node ids participating in
            gossip for that object (IDEA passes the bottom layer).
        local_digest:
            ``local_digest(node_id, object_id)`` returns the node's current
            digest, or ``None`` if it holds no replica.
        on_digest:
            Invoked as ``(receiver, digest)`` for every received digest —
            the piggyback hook the stability frontier rides (it must not
            schedule events; bookkeeping only).
        """
        self.clock = clock
        self.transport = transport
        self.config = config or GossipConfig()
        self._membership = membership
        self._local_digest = local_digest
        self._on_digest = on_digest
        self._sample = clock.random.subsets("overlay.gossip").sample
        self._objects: List[str] = []
        self._timer: Optional[PeriodicTimer] = None
        self._rounds = 0
        self._detection_totals: Dict[str, int] = {}
        self._seen: Dict[str, set] = {}
        #: per-receiver size above which the next dedupe sweep runs; doubles
        #: past the surviving set so a steady state larger than the base
        #: threshold cannot trigger a full rebuild on every message
        self._seen_sweep_at: Dict[str, int] = {}
        # Nodes receive gossip through their normal handler table.
        self._registered_nodes: set = set()

    # ------------------------------------------------------------ lifecycle
    def watch_object(self, object_id: str) -> None:
        """Start gossiping digests of ``object_id``."""
        if object_id not in self._objects:
            self._objects.append(object_id)

    def start(self) -> None:
        if self._timer is not None:
            return
        self._timer = PeriodicTimer(self.clock, self.run_round,
                                    period=self.config.round_period,
                                    label="gossip-round").start()

    def stop(self) -> None:
        """Cancel the periodic rounds (idempotent)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    # ---------------------------------------------------------------- rounds
    def run_round(self) -> int:
        """Run one gossip round for every watched object; returns msg count."""
        self._rounds += 1
        sent = 0
        for object_id in self._objects:
            # One list per round, shared by every hop's payload; receivers
            # treat it as read-only.
            members = list(self._membership(object_id))
            for node_id in members:
                if not self.transport.has_node(node_id):
                    continue  # crashed member gossips nothing this round
                digest = self._local_digest(node_id, object_id)
                if digest is None:
                    continue
                # Stamp the send time.  ``VersionDigest``'s positional
                # constructor (reached through the digest: core imports this
                # module) carries the memoised counts along.
                sent += self._forward(node_id, type(digest)(
                    object_id, node_id, self.clock.now, digest.writers,
                    digest.metadata, digest.last_consistent_time,
                    digest.total, digest._counts), self.config.ttl, members)
        return sent

    def _forward(self, sender: str, digest: VersionDigest, ttl: int,
                 members: List[str]) -> int:
        peers = [m for m in members if m != sender and m != digest.node_id]
        if not peers:
            return 0
        chosen = [peers[idx] for idx in
                  self._sample(len(peers), min(self.config.fanout, len(peers)))]
        registered = self._registered_nodes
        for peer in chosen:
            # A peer that is down takes the send as a counted drop and is
            # registered on its first post-recovery selection instead.
            if peer not in registered and self.transport.has_node(peer):
                self.attach(self.transport.node(peer))
        # One shared payload for the whole fan-out; receivers treat both the
        # digest and the member list as read-only.
        self.transport.send_many(sender, chosen, protocol=PROTOCOL,
                               msg_type="gossip_digest",
                               payload={"digest": digest, "ttl": ttl,
                                        "members": members},
                               size_bytes=DIGEST_BYTES)
        return len(chosen)

    def attach(self, node) -> None:
        """Make ``node`` receive gossip now rather than on first selection."""
        node.register_handler("gossip_digest", self._handle_digest)
        self._registered_nodes.add(node.node_id)

    # ------------------------------------------------------------- receiving
    def _handle_digest(self, message: Message) -> None:
        payload = message.payload
        digest: VersionDigest = payload["digest"]
        receiver = message.dst

        dedupe_key = (digest.node_id, digest.object_id, digest.issued_at)
        seen = self._seen.setdefault(receiver, set())
        already_seen = dedupe_key in seen
        seen.add(dedupe_key)
        if len(seen) > self._seen_sweep_at.get(receiver, self.SEEN_SWEEP_THRESHOLD):
            # Bounded-state sweep: a digest issued many round periods ago can
            # no longer be in flight, so forgetting its sighting cannot
            # resurrect a duplicate forward.
            horizon = self.clock.now - (self.SEEN_HORIZON_ROUNDS
                                      * self.config.round_period)
            kept = {k for k in seen if k[2] >= horizon}
            self._seen[receiver] = kept
            self._seen_sweep_at[receiver] = max(self.SEEN_SWEEP_THRESHOLD,
                                                2 * len(kept))

        if self._on_digest is not None:
            self._on_digest(receiver, digest)
        local = self._local_digest(receiver, digest.object_id)
        if local is not None and local.counts() != digest.counts():
            self._detection_totals[digest.object_id] = (
                self._detection_totals.get(digest.object_id, 0) + 1)

        # Forward onwards while TTL remains and this is the first sighting.
        ttl = payload["ttl"]
        if ttl > 1 and not already_seen:
            self._forward(receiver, digest, ttl - 1, payload["members"])

    # ------------------------------------------------------------- inspection
    @property
    def rounds_completed(self) -> int:
        return self._rounds

    def detection_count(self, object_id: Optional[str] = None) -> int:
        """Inconsistencies detected so far (for one object, or all of them)."""
        if object_id is None:
            return sum(self._detection_totals.values())
        return self._detection_totals.get(object_id, 0)
