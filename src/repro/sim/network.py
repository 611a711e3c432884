"""Simulated message-passing network.

Every protocol message in the reproduction — detection probes, gossip
digests, call-for-attention requests, resolution visits, anti-entropy
exchanges of the baselines — is sent through :meth:`Network.send_many`
(:meth:`Network.send` is its one-destination case).  The network

* samples a one-way delay from the configured :class:`LatencyModel`,
* optionally drops the message according to a loss probability,
* delivers it by invoking the destination node's ``deliver`` method at the
  delayed time, and
* records per-protocol counters (message count and payload bytes), which is
  exactly what Table 3 of the paper reports ("overhead in number of
  exchanged messages").

Message "size" is an abstract byte count supplied by the sender.

Hot-path notes: delivery events are scheduled by binding the network's own
``_deliver`` method with the message as the event argument — no capturing
lambda per send — and the engine recycles those events through its free
list.  :meth:`send_many` is the whole send path: one payload, one size, one
counter update and one delivery label per fan-out, then a single loop that
draws loss, per-link loss and delay per destination in the order a sequence
of one-destination sends draws them.

Both methods treat an unreachable endpoint alike, destination first: a
crashed destination is a ``dst-down`` drop, else a crashed source a
``src-down`` drop, else a partitioned pair a ``partition`` drop.

Membership, the partition-group rule, the loss bound and the drop ledger
are the :class:`~repro.transport.api.Transport` base's, shared with the live
transport: a send to or from a known node that has since crashed, or across
partition groups, is a counted drop and never raises; sending to an id that
was *never* registered raises ``KeyError`` (a wiring bug, not a fault).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.sim.engine import Simulator
from repro.sim.latency import LatencyModel
from repro.transport.api import Transport
from repro.transport.message import Message, NetworkStats

__all__ = ["Message", "Network", "NetworkStats"]


class Network(Transport):
    """Delivers messages between registered nodes with latency and loss."""

    def __init__(self, sim: Simulator, latency: LatencyModel, *,
                 loss_probability: float = 0.0) -> None:
        self.loss_probability = self._loss_bound(loss_probability)
        super().__init__()
        self.sim = sim
        self.latency = latency
        latency.bind(sim.random)
        #: node_id -> partition group index while partitioned, else None
        self._partition_of: Optional[Dict[str, int]] = None
        #: (src, dst) -> extra per-link loss probability (world lossy tiers);
        #: empty for homogeneous networks, so the hot path pays one falsy
        #: check.  Per-link drops are accounted under the "link-loss" reason,
        #: separate from the global "loss" bucket.
        self._pair_loss: Dict[tuple, float] = {}
        self._loss_rng = sim.random.stream("network.loss")
        #: (protocol, msg_type) -> interned delivery-event label; the pairs
        #: form a small fixed set, so labels are built once, not per send
        self._labels: Dict[tuple, str] = {}
        #: observers called with every delivered message (used by tests)
        self.delivery_hooks: List[Callable[[Message], None]] = []

    # ------------------------------------------------------------ partitions
    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Split the network by :meth:`Transport._group_of`'s rule.

        Messages in flight are checked again at delivery time, so a
        partition takes effect immediately even for already-scheduled
        deliveries.
        """
        self._partition_of = self._group_of(groups)

    def heal(self) -> None:
        """Remove any active partition (idempotent)."""
        self._partition_of = None

    @property
    def partitioned(self) -> bool:
        return self._partition_of is not None

    def reachable(self, src: str, dst: str) -> bool:
        """True when no partition separates ``src`` and ``dst``."""
        partition_of = self._partition_of
        if partition_of is None:
            return True
        # unlisted nodes share index -1, which no listed group has
        return partition_of.get(src, -1) == partition_of.get(dst, -1)

    # ------------------------------------------------------------------ loss
    def set_loss_probability(self, loss_probability: float, *,
                             src: Optional[str] = None,
                             dst: Optional[str] = None) -> None:
        """Change the message loss probability, globally or per link.

        With no endpoints this sets the global per-message loss (e.g. for a
        loss burst).  With both ``src`` and ``dst`` it sets an *additional*
        per-link probability for messages src→dst — the mechanism world
        lossy tiers (edge/wifi-like links) are built on.  A per-link draw
        happens only for messages that survive the global draw, and its
        drops are accounted under the ``"link-loss"`` reason so lossy-tier
        behaviour is visible separately in :attr:`NetworkStats.drop_reasons`.
        Setting a link's probability to 0 removes its entry.  Directions are
        independent: configure (a, b) and (b, a) separately for a symmetric
        lossy link.
        """
        self._loss_bound(loss_probability)
        if (src is None) != (dst is None):
            raise ValueError("per-link loss needs both src and dst (or neither)")
        if src is None:
            self.loss_probability = loss_probability
            return
        for node_id in (src, dst):
            if node_id not in self._known:
                raise KeyError(f"per-link loss names unknown node {node_id!r}")
        if loss_probability == 0.0:
            self._pair_loss.pop((src, dst), None)
        else:
            self._pair_loss[(src, dst)] = loss_probability

    def link_loss(self, src: str, dst: str) -> float:
        """The per-link loss probability configured for src→dst (0 if none)."""
        return self._pair_loss.get((src, dst), 0.0)

    # ---------------------------------------------------------------- sending
    def _unreachable_reason(self, src: str, dst: str) -> Optional[str]:
        """Why a send src→dst cannot go through right now, or ``None``.

        Raises ``KeyError`` for endpoints that were never registered;
        crashed (known but unregistered) endpoints and partitioned pairs
        yield a drop reason instead.
        """
        nodes = self._nodes
        if dst not in nodes:
            if dst not in self._known:
                raise KeyError(f"destination node {dst!r} is not registered")
            return "dst-down"
        if src not in nodes:
            if src not in self._known:
                raise KeyError(f"source node {src!r} is not registered")
            return "src-down"
        if self._partition_of is not None and not self.reachable(src, dst):
            return "partition"
        return None

    def send(self, src: str, dst: str, *, protocol: str, msg_type: str,
             payload: Any = None, size_bytes: Optional[int] = None) -> bool:
        """Send a message; True if it is in flight, False if dropped."""
        return self.send_many(src, (dst,), protocol=protocol,
                              msg_type=msg_type, payload=payload,
                              size_bytes=size_bytes) == 1

    def _label(self, protocol: str, msg_type: str) -> str:
        key = (protocol, msg_type)
        label = self._labels.get(key)
        if label is None:
            label = self._labels[key] = f"deliver:{protocol}:{msg_type}"
        return label

    def send_many(self, src: str, dsts: Sequence[str], *, protocol: str,
                  msg_type: str, payload: Any = None,
                  size_bytes: Optional[int] = None) -> int:
        """Fan one payload out to many destinations; returns how many of the
        messages are in flight.

        The payload object is shared across the fan-out (receivers treat
        payloads as read-only), so a top-layer broadcast allocates one payload
        instead of one per peer.  Size, counters and the delivery label are
        worked out once per fan-out; then one loop draws, per destination and
        in this order, the global loss and the per-link loss
        (``network.loss`` stream) and the delay (the latency model's stream)
        — draw for draw what one :meth:`send` per destination does, so RNG
        stream order and every event are the same.
        """
        if not dsts:
            return 0
        size = self.DEFAULT_MESSAGE_BYTES if size_bytes is None else int(size_bytes)
        nodes = self._nodes
        if (src not in nodes or self._partition_of is not None
                or not all(map(nodes.__contains__, dsts))):
            # Something is down or cut off: each unreachable destination is
            # a counted drop, for the reason one send() to it would give.
            reachable = []
            for dst in dsts:
                reason = self._unreachable_reason(src, dst)
                if reason is None:
                    reachable.append(dst)
                else:
                    self._drop(protocol, size, reason)
            if not reachable:
                return 0
            dsts = reachable
        stats = self.stats
        count = len(dsts)
        stats.sent[protocol] += count
        stats.bytes_sent[protocol] += size * count
        sim = self.sim
        label = self._label(protocol, msg_type)
        loss = self.loss_probability
        pair_loss = self._pair_loss
        draw_loss = self._loss_rng.random
        draw_delay = self.latency.delay
        call_after = sim.call_after
        deliver = self._deliver
        priority = Simulator.PRIORITY_NETWORK
        for dst in dsts:
            if loss > 0 and draw_loss() < loss:
                self._count_drop(protocol, "loss")
                count -= 1
                continue
            if pair_loss:
                link_loss = pair_loss.get((src, dst))
                if link_loss is not None and draw_loss() < link_loss:
                    self._count_drop(protocol, "link-loss")
                    count -= 1
                    continue
            call_after(draw_delay(src, dst), deliver,
                       arg=Message(src, dst, protocol, msg_type, payload),
                       recyclable=True, priority=priority, label=label)
        return count

    def _deliver(self, message: Message) -> None:
        node = self._nodes.get(message.dst)
        if node is None:
            # Destination departed while the message was in flight; drop it.
            self._count_drop(message.protocol, "departed")
            return
        if (self._partition_of is not None
                and not self.reachable(message.src, message.dst)):
            # A partition formed while the message was in flight.
            self._count_drop(message.protocol, "partition")
            return
        self.stats.delivered[message.protocol] += 1
        if self.delivery_hooks:
            for hook in self.delivery_hooks:
                hook(message)
        node.deliver(message)

    def expected_rtt(self, a: str, b: str) -> float:
        """Expected round-trip time between two nodes (seconds)."""
        return (self.latency.expected_delay(a, b) +
                self.latency.expected_delay(b, a))
