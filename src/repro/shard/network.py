"""The cross-shard network proxy.

Each shard process runs a full :class:`~repro.sim.network.Network` over its
*local* nodes; this subclass additionally knows the set of remote node ids
(registered without node objects) and intercepts sends addressed to them:

* the delay is sampled exactly as the in-process oracle would sample it —
  same model, same per-source stream, same draw order — so the delivery
  timestamp is bit-identical to the unsharded run;
* instead of scheduling a local delivery event, the message is appended to
  the current window's **outbox** as a plain picklable tuple;
* at each window barrier the coordinator collects every shard's outbox and
  hands each message to the destination shard, which :meth:`inject`\\ s it
  as an ordinary delivery event at the original timestamp.

Conservative-lookahead safety: the coordinator's window width never exceeds
the minimum cross-shard ``min_delay``, so a message sent during window *k*
carries ``deliver_at`` strictly beyond barrier *k* and injection at the
barrier is never late.  :meth:`inject` asserts this invariant and raises
:class:`LookaheadViolation` on any message that would need to execute in
simulated past.

Features that are unsound under partitioning — probabilistic loss (draws
from a shared global stream) and runtime partitions (groups span shards) —
raise instead of silently diverging from the oracle.

:class:`ShardHost` is what puts the proxy under a deployment: the
:class:`~repro.core.deployment.DeploymentBuilder` host that
``builder.partition(plan, i)`` selects.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from repro.core.deployment import SimHost
from repro.shard.partition import ShardPlan
from repro.sim.engine import SimulationError, Simulator
from repro.sim.latency import LatencyModel, PerSourceLatencyModel
from repro.sim.network import Message, Network

#: wire format of one cross-shard message:
#: (deliver_at, src, dst, protocol, msg_type, payload, size_bytes, sent_at, seq)
WireMessage = Tuple[float, str, str, str, str, Any, int, float, int]


class LookaheadViolation(SimulationError):
    """A cross-shard message would have to be delivered in the simulated past.

    Raised by :meth:`ShardedNetwork.inject` when a message's delivery time
    precedes the barrier being injected at — i.e. the coordinator's window
    was wider than the latency model's actual cross-shard floor.
    """


class ShardedNetwork(Network):
    """A :class:`Network` for one shard of a space-partitioned deployment."""

    def __init__(self, sim: Simulator, latency: LatencyModel, *,
                 shard_index: int = 0, strict: bool = True) -> None:
        super().__init__(sim, latency, loss_probability=0.0, strict=strict)
        self.shard_index = shard_index
        #: node ids owned by other shards (registered, but no local object)
        self._remote: set = set()
        #: cross-shard messages sent since the last flush
        self._outbox: List[WireMessage] = []
        #: per-shard monotone sequence number; breaks exact-timestamp ties
        #: among injected messages deterministically (by sending shard, then
        #: send order) regardless of arrival interleaving
        self._outbox_seq = 0
        #: counters for telemetry
        self.remote_sent = 0
        self.remote_injected = 0
        #: when set (the coordinator sets it to the window width), remote
        #: sends assert ``delay >= min_remote_delay`` at the source — catching
        #: a latency model that violates its own ``min_delay`` contract at
        #: the earliest possible point
        self.min_remote_delay: Optional[float] = None

    # ------------------------------------------------------------ membership
    def register_remote(self, node_ids: Iterable[str]) -> None:
        """Declare ids owned by other shards as known-but-remote."""
        for node_id in node_ids:
            if node_id in self._nodes:
                raise ValueError(
                    f"node {node_id!r} is registered locally; it cannot also "
                    f"be remote")
            self._remote.add(node_id)
            self._known.add(node_id)

    def is_remote(self, node_id: str) -> bool:
        return node_id in self._remote

    # ------------------------------------------------- unsupported features
    def set_loss_probability(self, loss_probability: float, *,
                             src: Optional[str] = None,
                             dst: Optional[str] = None) -> None:
        if loss_probability > 0:
            raise ValueError(
                "message loss is not supported in sharded mode: loss draws "
                "consume a shared global RNG stream, which would make drops "
                "depend on the shard decomposition")
        super().set_loss_probability(loss_probability, src=src, dst=dst)

    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        raise ValueError(
            "network partitions are not supported in sharded mode: partition "
            "groups may span shard boundaries")

    # ---------------------------------------------------------------- sending
    def send(self, src: str, dst: str, *, protocol: str, msg_type: str,
             payload: Any = None, size_bytes: Optional[int] = None) -> Optional[Message]:
        if dst in self._remote:
            return self._send_remote(src, dst, protocol=protocol,
                                     msg_type=msg_type, payload=payload,
                                     size_bytes=size_bytes)
        return super().send(src, dst, protocol=protocol, msg_type=msg_type,
                            payload=payload, size_bytes=size_bytes)

    def send_many(self, src: str, dsts: Sequence[str], *, protocol: str,
                  msg_type: str, payload: Any = None,
                  size_bytes: Optional[int] = None) -> List[Message]:
        if any(dst in self._remote for dst in dsts):
            # Mixed or fully-remote fan-out: fall back to per-destination
            # sends in order.  This matches the oracle's RNG draw order
            # because the shard-safe latency models are per-source and
            # report no homogeneous delay.
            return [m for dst in dsts
                    if (m := self.send(src, dst, protocol=protocol,
                                       msg_type=msg_type, payload=payload,
                                       size_bytes=size_bytes)) is not None]
        return super().send_many(src, dsts, protocol=protocol,
                                 msg_type=msg_type, payload=payload,
                                 size_bytes=size_bytes)

    def _send_remote(self, src: str, dst: str, *, protocol: str,
                     msg_type: str, payload: Any,
                     size_bytes: Optional[int]) -> Optional[Message]:
        size = self.DEFAULT_MESSAGE_BYTES if size_bytes is None else int(size_bytes)
        if src not in self._nodes:
            # Mirror the oracle's crash-stop accounting for a downed source.
            if self.strict and src not in self._known:
                raise KeyError(f"source node {src!r} is not registered")
            self._drop(protocol, size, "src-down")
            return None
        stats = self.stats
        stats.sent[protocol] += 1
        stats.bytes_sent[protocol] += size

        delay = self.latency.delay(src, dst)
        floor = self.min_remote_delay
        if floor is not None and delay < floor - 1e-12:
            raise LookaheadViolation(
                f"cross-shard delay {delay!r} for {src!r}->{dst!r} is below "
                f"the lookahead window {floor!r}; the latency model violates "
                f"its min_delay contract")
        now = self.sim.now
        self.remote_sent += 1
        seq = self._outbox_seq
        self._outbox_seq = seq + 1
        self._outbox.append((now + delay, src, dst, protocol, msg_type,
                             payload, size, now, seq))
        # Callers (e.g. Node.request) treat a None result as a failed send,
        # so a remote send still returns an in-flight Message view.  Its
        # msg_id is source-local and carries no cross-process meaning.
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        return Message(msg_id=msg_id, src=src, dst=dst, protocol=protocol,
                       msg_type=msg_type, payload=payload, size_bytes=size,
                       sent_at=now, deliver_at=now + delay)

    # ------------------------------------------------------------ IPC seams
    def flush_outbox(self) -> List[WireMessage]:
        """Hand the current window's cross-shard messages to the coordinator."""
        outbox = self._outbox
        self._outbox = []
        return outbox

    def inject(self, entries: Iterable[WireMessage], *,
               barrier: Optional[float] = None) -> int:
        """Schedule incoming cross-shard messages as local delivery events.

        ``entries`` are sorted by ``(deliver_at, src, seq)`` before
        scheduling so injection order is independent of the coordinator's
        collection interleaving.  Each message is scheduled at its original
        ``deliver_at``; if that equals the current simulated time (the shard
        is parked exactly at the barrier), the event is scheduled *now*,
        mirroring how the oracle executes a delivery landing exactly on a
        ``run(until=...)`` boundary.  A delivery time in the simulated past
        raises :class:`LookaheadViolation`.
        """
        now = self.sim.now
        bound = now if barrier is None else barrier
        count = 0
        for entry in sorted(entries, key=lambda e: (e[0], e[1], e[8])):
            deliver_at, src, dst, protocol, msg_type, payload, size, sent_at, _ = entry
            if deliver_at < bound - 1e-9:
                raise LookaheadViolation(
                    f"message {src!r}->{dst!r} scheduled for {deliver_at!r} "
                    f"arrived at barrier {bound!r}: the lookahead window was "
                    f"too wide")
            msg_id = self._next_msg_id
            self._next_msg_id = msg_id + 1
            message = Message(msg_id=msg_id, src=src, dst=dst,
                              protocol=protocol, msg_type=msg_type,
                              payload=payload, size_bytes=size,
                              sent_at=sent_at, deliver_at=deliver_at)
            self.sim.call_at(max(deliver_at, now), self._deliver, arg=message,
                             recyclable=True,
                             priority=Simulator.PRIORITY_NETWORK,
                             label=self._label(protocol, msg_type))
            self.remote_injected += 1
            count += 1
        return count


class ShardHost(SimHost):
    """Hosts shard ``shard_index``'s slice of a space-partitioned deployment.

    Only the shard's local nodes get endpoints (and hence store/runtime
    stacks); the remaining ids register on the :class:`ShardedNetwork` proxy
    as remote, so sends to them are outboxed instead of raising.  The latency
    model defaults to the shard-decomposition-safe
    :class:`~repro.sim.latency.PerSourceLatencyModel`.
    """

    def __init__(self, plan: ShardPlan, shard_index: int = 0) -> None:
        if not 0 <= shard_index < plan.num_shards:
            raise ValueError(
                f"shard_index {shard_index} out of range for "
                f"{plan.num_shards}-shard plan")
        self.plan = plan
        self.shard_index = shard_index

    def __call__(self, builder, d) -> None:
        super().__call__(builder, d)
        d.network.register_remote(n for n in d.node_ids if n not in d.nodes)

    def hosted_node_ids(self, d) -> List[str]:
        missing = [n for n in d.node_ids if n not in self.plan.node_shard]
        if missing:
            raise ValueError(
                f"shard plan does not cover node(s) {missing[:3]}; "
                f"build the plan from the same topology")
        return self.plan.local_nodes(self.shard_index, d.node_ids)

    def default_latency(self, d) -> LatencyModel:
        return PerSourceLatencyModel(d.topology, d.sim.random)

    def make_network(self, builder, d) -> ShardedNetwork:
        if builder.loss_probability > 0:
            raise ValueError(
                "message loss is not supported in partitioned builds "
                "(loss draws consume a shared global RNG stream)")
        if builder.use_gossip:
            raise ValueError(
                "gossip is not supported in partitioned builds "
                "(membership spans shard boundaries)")
        return ShardedNetwork(d.sim, d.latency, shard_index=self.shard_index)
