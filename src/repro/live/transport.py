"""Socket-backed implementation of the transport seam.

One :class:`LiveTransport` serves one process.  It keeps an address book
for the whole deployment (node id → UNIX-socket path or TCP ``(host,
port)``), hosts the locally registered :class:`ProtocolEndpoint` objects,
and moves messages as length-prefixed frames (:mod:`repro.live.wire`):

* a send to a **local** endpoint short-circuits through
  ``clock.call_after(0, ...)`` — same queue-hop a simulated zero-latency
  delivery takes, so handlers never run re-entrantly inside ``send``;
* a send to a **remote** id is encoded once and handed to a per-peer sender
  task that lazily connects and streams frames over one long-lived
  connection.  Connects and *re*-connects use capped, jittered exponential
  backoff (:mod:`repro.live.backoff`): the first connect gives up after a
  bounded window (a peer that never came up), an established connection
  that drops is re-dialed forever (a plan's restart may bring the peer
  back at any time).  The per-peer queue is **bounded**: while a peer is
  down the oldest frame is evicted per new send and counted as a
  ``queue-overflow`` drop, so memory stays flat instead of growing with
  outage length;
* a fan-out (:meth:`LiveTransport.send_many`) makes **one payload text**:
  every destination still gets its own checks, loss draw, accounting and
  ``wire.encode_envelope`` call, but only the first remote one encodes the
  payload — the rest splice that text into their envelope;
* each local endpoint with an address gets a listening server, and each
  accepted connection one :class:`asyncio.Protocol`: ``data_received``
  splits whole frames out of the bytes that arrived, decodes each into a
  :class:`~repro.transport.message.Message` and dispatches it to the
  endpoint's ``deliver`` in the same callback — no reader task, no await
  per frame.  A single oversized or malformed frame closes *that*
  connection with one counted ``frame-error`` drop; the server and every
  other connection stay up, and a frame cut short by the peer closing is
  not an error;
* :meth:`start_heartbeats` runs a liveness probe per remote peer (a cheap
  connect/close at a jittered period).  ``heartbeat_misses`` consecutive
  failures mark the peer down: sends to it become immediate counted
  ``dst-down`` drops (the same crash-stop semantics sim ``Network`` gives a
  failed node); one successful probe marks it back up.  Nothing else
  listens to these transitions.

The simulated :class:`~repro.sim.network.Network`'s fault surface is here
too, so one :class:`~repro.scenarios.injector.FaultInjector` applies a
fault plan on either backend: :meth:`partition` (the sim's group rule)
turns sends to (and inbound frames from) every peer outside this
process's group into counted ``partition`` drops, :meth:`heal` lifts it,
and :meth:`set_loss_probability` applies seeded Bernoulli ``loss`` drops at
send time — the same drop reasons the simulated ``Network`` records, so
``NetworkStats`` stays comparable across backends.

Semantics mirror the simulated :class:`~repro.sim.network.Network` where a
real network can honour them: sending to an id absent from the address book
and never registered locally raises ``KeyError`` (a wiring bug); sends
involving known-but-down endpoints are counted drops (``src-down`` /
``dst-down`` / ``departed``), never errors.  What a real network cannot
honour — deterministic latency, global delivery order — is exactly the
divergence the conformance oracle excludes (DESIGN.md §13, §15).
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import os
from typing import (Any, Deque, Dict, Iterator, List, Optional, Sequence,
                    Set, Tuple, Union)

from repro.live import wire
from repro.live.backoff import DEFAULT_CONNECT, DEFAULT_RECONNECT, BackoffPolicy
from repro.live.clock import LiveClock
from repro.live.wire import HEADER, MAX_FRAME_BYTES
from repro.transport.errors import TransportError
from repro.transport.message import Message, NetworkStats

#: node address: a UNIX-socket path, or a ``(host, port)`` pair for TCP
Address = Union[str, Tuple[str, int]]

#: sends queued toward a peer while its connection is down are bounded to
#: this many frames per peer; beyond it the oldest queued frame is evicted
#: as a counted ``queue-overflow`` drop
DEFAULT_QUEUE_FRAMES = 1024

#: consecutive failed liveness probes before a peer is declared down
DEFAULT_HEARTBEAT_MISSES = 3

_HEADER_BYTES = HEADER.size


class _PeerLink:
    """Outbound bounded frame queue plus the sender task draining it."""

    __slots__ = ("frames", "event", "task", "writer", "connects", "closed")

    def __init__(self, task: "asyncio.Task[None]") -> None:
        #: queued ``(protocol, frame)`` pairs — protocol kept so eviction and
        #: send-failure drops are charged to the right protocol counter
        self.frames: Deque[Tuple[str, bytes]] = collections.deque()
        self.event = asyncio.Event()
        self.task = task
        self.writer: Optional[asyncio.StreamWriter] = None
        self.connects = 0          # successful connects (first + re-dials)
        self.closed = False        # stop(): flush what is queued, then exit


class _InboundFrames(asyncio.Protocol):
    """One accepted connection: frames are split out of the bytes as they
    arrive, decoded and delivered inside the loop's read callback."""

    __slots__ = ("owner", "buffer", "transport")

    def __init__(self, owner: "LiveTransport") -> None:
        self.owner = owner
        self.buffer = bytearray()
        self.transport: Optional[asyncio.Transport] = None

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport  # type: ignore[assignment]
        if self.owner._closing:
            transport.close()       # accepted while stop() ran
            return
        self.owner._inbound.add(transport)

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.owner._inbound.discard(self.transport)

    def data_received(self, data: bytes) -> None:
        buffer = self.buffer
        buffer += data
        owner = self.owner
        size = len(buffer)
        start = 0
        while size - start >= _HEADER_BYTES:
            (length,) = HEADER.unpack_from(buffer, start)
            if length > MAX_FRAME_BYTES:
                self._refuse()
                return
            end = start + _HEADER_BYTES + length
            if end > size:
                break
            body = buffer[start + _HEADER_BYTES:end]
            start = end
            try:
                # through the module: the ledger's tracer patches it there
                (src, dst, protocol, msg_type, payload, size_bytes,
                 _sent_at) = wire.decode_envelope(body)
            except wire.WireError:
                self._refuse()
                return
            if src in owner._blocked_peers:
                # frames in flight when the partition began, or from a peer
                # whose clock has not reached it yet
                owner._count_drop(protocol, "partition")
                continue
            owner._deliver_local(owner._make_message(
                src, dst, protocol, msg_type, payload, size_bytes,
                owner.clock.now))
        del buffer[:start]

    def _refuse(self) -> None:
        """An oversized or undecodable frame: one counted drop, and this
        connection closes; the server and every other connection stay up."""
        self.owner._count_drop("live", "frame-error")
        self.buffer.clear()
        self.transport.close()


class LiveTransport:
    """Seam ``Transport`` over asyncio stream connections."""

    DEFAULT_MESSAGE_BYTES = 1024

    def __init__(self, clock: LiveClock, addresses: Dict[str, Address], *,
                 kind: str = "uds",
                 connect_backoff: BackoffPolicy = DEFAULT_CONNECT,
                 reconnect_backoff: BackoffPolicy = DEFAULT_RECONNECT,
                 max_queue_frames: int = DEFAULT_QUEUE_FRAMES,
                 heartbeat_period: float = 0.0,
                 heartbeat_misses: int = DEFAULT_HEARTBEAT_MISSES) -> None:
        if kind not in ("uds", "tcp"):
            raise TransportError(f"unknown transport kind {kind!r}")
        self.clock = clock
        self.kind = kind
        self.addresses: Dict[str, Address] = dict(addresses)
        self.stats = NetworkStats()
        self._nodes: Dict[str, Any] = {}
        #: every id this transport can name — address book plus anything
        #: registered locally; sends to other ids raise (wiring bug)
        self._known: Set[str] = set(self.addresses)
        self._peers: Dict[str, _PeerLink] = {}
        self._servers: List[asyncio.AbstractServer] = []
        #: accepted inbound connections still open
        self._inbound: Set[asyncio.BaseTransport] = set()
        self._next_msg_id = 0
        self._closing = False
        self.delivery_hooks: List[Any] = []

        # --- fault tolerance knobs ---
        self.connect_backoff = connect_backoff
        self.reconnect_backoff = reconnect_backoff
        self.max_queue_frames = int(max_queue_frames)
        if self.max_queue_frames < 1:
            raise TransportError("max_queue_frames must be >= 1")
        self.heartbeat_period = float(heartbeat_period)
        self.heartbeat_misses = int(heartbeat_misses)

        #: successful re-dials of previously established connections,
        #: summed over peers — the chaos CLI asserts this is nonzero after
        #: a crash/restart plan
        self.reconnects = 0
        #: peers the liveness probe currently believes are crashed
        self._peer_down: Set[str] = set()
        self._probe_tasks: List["asyncio.Task[None]"] = []

        # --- fault drop rules (see partition / set_loss_probability) ---
        self._blocked_peers: Set[str] = set()
        self._loss_probability = 0.0
        self._loss_rng: Optional[Any] = None

    # ------------------------------------------------------------ membership
    def register(self, node: Any) -> None:
        node_id = node.node_id
        if node_id in self._nodes:
            raise ValueError(f"node {node_id!r} already registered")
        self._nodes[node_id] = node
        self._known.add(node_id)

    def unregister(self, node_id: str) -> None:
        self._nodes.pop(node_id, None)

    @property
    def node_ids(self) -> List[str]:
        return list(self._nodes)

    def node(self, node_id: str) -> Any:
        return self._nodes[node_id]

    def has_node(self, node_id: str) -> bool:
        """True only for endpoints hosted by *this* process."""
        return node_id in self._nodes

    # ------------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind one listening server per locally hosted endpoint address."""
        loop = asyncio.get_running_loop()
        for node_id in self._nodes:
            address = self.addresses.get(node_id)
            if address is None:
                continue  # purely in-process endpoint (tests)
            if self.kind == "uds":
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(address)  # stale socket from a previous run
                server = await loop.create_unix_server(
                    lambda: _InboundFrames(self), path=address)
            else:
                host, port = address
                server = await loop.create_server(
                    lambda: _InboundFrames(self), host=host, port=port)
            self._servers.append(server)

    def start_heartbeats(self) -> None:
        """Begin liveness probing of every remote peer in the address book.

        Separate from :meth:`start` on purpose: deployments call it *after*
        the ready barrier, so slow bring-up is never misread as a crash.
        A ``heartbeat_period`` of 0 (the default) disables probing.
        """
        if self.heartbeat_period <= 0 or self._closing:
            return
        loop = asyncio.get_event_loop()
        for peer_id, address in self.addresses.items():
            if peer_id in self._nodes:
                continue
            self._probe_tasks.append(
                loop.create_task(self._probe_loop(peer_id, address)))

    async def stop(self) -> None:
        """Tear down probes, sender tasks, inbound connections and servers."""
        self._closing = True
        for task in self._probe_tasks:
            task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await task
        self._probe_tasks.clear()
        for link in self._peers.values():
            link.closed = True      # sender sentinel: flush and exit
            link.event.set()
        for link in self._peers.values():
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(link.task, timeout=2.0)
            if not link.task.done():
                link.task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await link.task
        self._peers.clear()
        for server in self._servers:
            server.close()          # no new inbound connections from here on
        for inbound in list(self._inbound):
            inbound.close()         # connection_lost runs on the next pass
        await asyncio.sleep(0)
        for server in self._servers:
            await server.wait_closed()
        self._servers.clear()
        if self.kind == "uds":
            for node_id in self._nodes:
                address = self.addresses.get(node_id)
                if isinstance(address, str):
                    with contextlib.suppress(OSError):
                        os.unlink(address)

    # ------------------------------------------------------ fault drop rules
    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Split the network as sim ``Network.partition`` does: messages
        flow only within a group, and the nodes no group lists form one
        more.  Sends to (and frames from) every known id outside the group
        of this process's endpoints become counted ``partition`` drops."""
        group_of: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for node_id in group:
                if node_id in group_of:
                    raise ValueError(f"node {node_id!r} listed in two groups")
                if node_id not in self._known:
                    raise KeyError(
                        f"partition group names unknown node {node_id!r}")
                group_of[node_id] = index
        own = {group_of.get(node_id, -1) for node_id in self._nodes}
        if len(own) > 1:
            raise ValueError("this transport's endpoints sit in different "
                             "partition groups")
        self._blocked_peers = {node_id for node_id in self._known
                               if group_of.get(node_id, -1) not in own}

    def heal(self) -> None:
        """Remove any active partition (idempotent)."""
        self._blocked_peers = set()

    @property
    def loss_probability(self) -> float:
        return self._loss_probability

    def set_loss_probability(self, probability: float) -> None:
        """Bernoulli ``loss`` drops at send time, seeded from the clock's
        random streams so a given (seed, sequence of sends) replays."""
        if not 0.0 <= probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        self._loss_probability = float(probability)

    def _loss_draw(self) -> bool:
        if self._loss_probability <= 0.0:
            return False
        if self._loss_rng is None:
            self._loss_rng = self.clock.random.stream("live.chaos-loss")
        return bool(self._loss_rng.uniform(0.0, 1.0)
                    < self._loss_probability)

    # --------------------------------------------------------------- liveness
    async def _probe_loop(self, peer_id: str, address: Address) -> None:
        missed = 0
        rng = self.clock.random.stream(f"live.hb.{peer_id}")
        while not self._closing:
            # jittered period: probes across the fleet de-synchronise
            await asyncio.sleep(
                self.heartbeat_period * float(rng.uniform(0.85, 1.15)))
            try:
                _, writer = await asyncio.wait_for(
                    self._connect(address), timeout=self.heartbeat_period * 2)
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
            except (ConnectionError, OSError, FileNotFoundError,
                    asyncio.TimeoutError):
                missed += 1
                if missed >= self.heartbeat_misses:
                    self._peer_down.add(peer_id)
                continue
            missed = 0
            self._peer_down.discard(peer_id)

    # ---------------------------------------------------------------- sending
    def send(self, src: str, dst: str, *, protocol: str, msg_type: str,
             payload: Any = None,
             size_bytes: Optional[int] = None) -> Optional[Message]:
        size = (self.DEFAULT_MESSAGE_BYTES if size_bytes is None
                else int(size_bytes))
        return self._send(src, dst, protocol, msg_type, payload, size,
                          payload)

    def send_many(self, src: str, dsts: Sequence[str], *, protocol: str,
                  msg_type: str, payload: Any = None,
                  size_bytes: Optional[int] = None) -> List[Message]:
        """``[send(src, d, …) for d in dsts]`` minus the drops, with one
        payload text per call: the first remote destination encodes the
        payload, the rest splice that text into their own envelope."""
        size = (self.DEFAULT_MESSAGE_BYTES if size_bytes is None
                else int(size_bytes))
        shared = wire.SharedPayload(payload)
        return [m for dst in dsts
                if (m := self._send(src, dst, protocol, msg_type, payload,
                                    size, shared)) is not None]

    def _send(self, src: str, dst: str, protocol: str, msg_type: str,
              payload: Any, size: int, framed: Any) -> Optional[Message]:
        """One destination's checks, accounting and queueing; ``framed`` is
        what the codec is given — ``payload`` or its ``SharedPayload``."""
        if src not in self._nodes:
            if src not in self._known:
                raise KeyError(f"source node {src!r} is not registered")
            self._drop(protocol, size, "src-down")
            return None
        if dst not in self._nodes and dst not in self.addresses:
            raise KeyError(f"destination node {dst!r} is not registered")
        if dst in self._blocked_peers:
            self._drop(protocol, size, "partition")
            return None
        if self._loss_draw():
            self._drop(protocol, size, "loss")
            return None
        if dst in self._peer_down:
            # crash-stop as observed from here: the peer is gone, sends to
            # it degrade to counted drops exactly like sim's failed nodes
            self._drop(protocol, size, "dst-down")
            return None
        stats = self.stats
        # one reading per message: the frame and the Message handed back to
        # the caller carry the same ``sent_at``
        now = self.clock.now
        if dst in self._nodes:
            # Local fast path: one queue hop through the clock, mirroring a
            # zero-latency simulated delivery (no re-entrant handler calls).
            stats.sent[protocol] += 1
            stats.bytes_sent[protocol] += size
            message = self._make_message(src, dst, protocol, msg_type,
                                         payload, size, now)
            self.clock.call_after(0.0, self._deliver_local, arg=message)
            return message
        stats.sent[protocol] += 1
        stats.bytes_sent[protocol] += size
        try:
            frame = wire.encode_envelope(src, dst, protocol, msg_type,
                                         framed, size, now)
        except wire.WireError:
            self.stats.dropped[protocol] += 1
            self.stats.drop_reasons["encode-error"] += 1
            raise
        self._enqueue(dst, protocol, frame)
        return self._make_message(src, dst, protocol, msg_type, payload, size,
                                  now)

    def _make_message(self, src: str, dst: str, protocol: str, msg_type: str,
                      payload: Any, size: int, now: float) -> Message:
        """A message sent (outbound) or arrived (inbound) at ``now``."""
        msg_id = self._next_msg_id
        self._next_msg_id = msg_id + 1
        return Message(msg_id=msg_id, src=src, dst=dst, protocol=protocol,
                       msg_type=msg_type, payload=payload, size_bytes=size,
                       sent_at=now, deliver_at=now)

    def _drop(self, protocol: str, size: int, reason: str) -> None:
        stats = self.stats
        stats.sent[protocol] += 1
        stats.bytes_sent[protocol] += size
        stats.dropped[protocol] += 1
        stats.drop_reasons[reason] += 1

    def _count_drop(self, protocol: str, reason: str) -> None:
        """A frame already counted as sent failed later (queue eviction,
        connection loss): charge only the drop, never re-count the send."""
        self.stats.dropped[protocol] += 1
        self.stats.drop_reasons[reason] += 1

    # ------------------------------------------------------- local delivery
    def _deliver_local(self, message: Message) -> None:
        node = self._nodes.get(message.dst)
        if node is None:
            self.stats.dropped[message.protocol] += 1
            self.stats.drop_reasons["departed"] += 1
            return
        self.stats.delivered[message.protocol] += 1
        for hook in self.delivery_hooks:
            hook(message)
        node.deliver(message)

    # ------------------------------------------------------- outbound peers
    def _enqueue(self, dst: str, protocol: str, frame: bytes) -> None:
        link = self._peer(dst)
        if len(link.frames) >= self.max_queue_frames:
            evicted_protocol, _ = link.frames.popleft()
            self._count_drop(evicted_protocol, "queue-overflow")
        link.frames.append((protocol, frame))
        link.event.set()

    def _peer(self, dst: str) -> _PeerLink:
        link = self._peers.get(dst)
        if link is None:
            link = _PeerLink(asyncio.get_event_loop().create_task(
                self._sender_loop(dst)))
            self._peers[dst] = link
        return link

    async def _connect(self, address: Address):
        if self.kind == "uds":
            return await asyncio.open_unix_connection(path=address)
        host, port = address
        return await asyncio.open_connection(host=host, port=port)

    async def _sender_loop(self, dst: str) -> None:
        address = self.addresses[dst]
        # seeded per-peer jitter: same (seed, peer) replays the same backoff
        rng = self.clock.random.stream(f"live.backoff.{dst}")
        link: Optional[_PeerLink] = None
        try:
            while True:
                link = self._peers[dst]
                while not link.frames and not link.closed:
                    link.event.clear()
                    await link.event.wait()
                if not link.frames:
                    break  # closed and fully drained
                protocol, frame = link.frames.popleft()
                if link.writer is None:
                    link.writer = await self._connect_with_backoff(
                        link, address, rng)
                if link.writer is None:
                    self._count_drop(protocol, "dst-down")
                    continue
                try:
                    link.writer.write(frame)
                    await link.writer.drain()
                except (ConnectionError, OSError):
                    # established connection gone: drop this frame, re-dial
                    # (with the reconnect policy) before the next one
                    await self._close_writer(link)
                    self._count_drop(protocol, "conn-lost")
        finally:
            if link is not None:
                await self._close_writer(link)

    async def _close_writer(self, link: _PeerLink) -> None:
        writer, link.writer = link.writer, None
        if writer is not None:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _connect_with_backoff(
            self, link: _PeerLink, address: Address,
            rng: Any) -> Optional[asyncio.StreamWriter]:
        """Dial ``address`` under the connect policy (first ever connect,
        bounded give-up window) or the reconnect policy (a previously
        established connection dropped; retry until closed)."""
        policy = (self.connect_backoff if link.connects == 0
                  else self.reconnect_backoff)
        delays: Iterator[float] = policy.delays(rng)
        started = self.clock.now
        while not self._closing:
            try:
                _, writer = await self._connect(address)
            except (ConnectionError, OSError, FileNotFoundError):
                delay = next(delays)
                if (policy.max_elapsed is not None
                        and self.clock.now + delay - started
                        > policy.max_elapsed):
                    return None
                await asyncio.sleep(delay)
                continue
            link.connects += 1
            if link.connects > 1:
                self.reconnects += 1
            return writer
        return None

    # ------------------------------------------------------------- accounting
    def messages_sent(self, protocol_prefix: str = "") -> int:
        return self.stats.total_sent(protocol_prefix)

    def bytes_sent(self, protocol_prefix: str = "") -> int:
        return self.stats.total_bytes(protocol_prefix)
