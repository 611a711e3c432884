"""Socket-backed implementation of the transport seam.

One :class:`LiveTransport` serves one process.  It keeps an address book
for the whole deployment (node id → UNIX-socket path or TCP ``(host,
port)``), hosts the locally registered :class:`ProtocolEndpoint` objects,
and moves messages as length-prefixed frames (:mod:`repro.live.wire`):

* a send to a **local** endpoint short-circuits through
  ``clock.call_after(0, ...)`` — same queue-hop a simulated zero-latency
  delivery takes, so handlers never run re-entrantly inside ``send``;
* a send to a **remote** id is encoded once and queued for that peer; the
  first queued frame of a loop pass schedules one ``call_soon`` flush that
  writes each peer's queue in one ``write`` on its long-lived connection
  (an :class:`asyncio.Protocol`: no task, no await).  A peer with no
  connection is dialed under capped, jittered exponential backoff
  (:mod:`repro.live.backoff`): the first connect gives up after a bounded
  window, a connection that closed (its EOF is seen at once) is re-dialed
  forever.  The per-peer queue is **bounded**: while a peer is unreachable
  or its connection paused, each send beyond the bound evicts the oldest
  frame as a counted ``queue-overflow`` drop;
* a fan-out (:meth:`LiveTransport.send_many`) **encodes its payload
  once**: every destination still gets its own checks, loss draw,
  accounting and ``wire.encode_envelope`` call, but only the first remote
  one encodes the payload — its JSON text, or an announce's ids and raw
  column — and the rest splice that part into their own frame;
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

Membership, the partition-group rule, the loss bound and the drop ledger
are the :class:`~repro.transport.api.Transport` base's, as on the simulator,
so one :class:`~repro.scenarios.injector.FaultInjector` applies a plan on
either backend with the same drop reasons: :meth:`partition` blocks sends
to and frames from every peer outside this process's group, :meth:`heal`
lifts it, and :meth:`set_loss_probability` draws seeded ``loss`` drops at
send time.  What a real network cannot honour — deterministic latency,
global delivery order — is the divergence the conformance oracle excludes
(DESIGN.md §13, §15).
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
from repro.transport.api import Transport
from repro.transport.errors import TransportError
from repro.transport.message import Message

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
    """Outbound bounded frame queue plus the connection it is flushed to."""

    __slots__ = ("frames", "connection", "paused", "dialing", "connects")

    def __init__(self) -> None:
        #: queued ``(protocol, frame)`` pairs — protocol kept so eviction and
        #: send-failure drops are charged to the right protocol counter
        self.frames: Deque[Tuple[str, bytes]] = collections.deque()
        self.connection: Optional[asyncio.Transport] = None
        self.paused = False        # the connection's buffer is over its mark
        self.dialing: Optional[asyncio.Task] = None  # while unconnected
        self.connects = 0          # successful connects (first + re-dials)


class _OutboundFrames(asyncio.Protocol):
    """One outbound connection's flow control and loss; the peer never
    writes, so its EOF (``eof_received`` returns None) closes it too."""

    __slots__ = ("owner", "dst", "link", "transport")

    def __init__(self, owner: "LiveTransport", dst: str,
                 link: _PeerLink) -> None:
        self.owner = owner
        self.dst = dst
        self.link = link

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        self.transport = transport

    def connection_lost(self, exc: Optional[Exception]) -> None:
        link = self.link
        if link.connection is self.transport:
            link.connection = None
            link.paused = False
            if link.frames:
                self.owner._dial(self.dst, link)

    def pause_writing(self) -> None:
        self.link.paused = True

    def resume_writing(self) -> None:
        link = self.link
        link.paused = False
        if link.frames:
            self.owner._mark_dirty(link)


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
                src, dst, protocol, msg_type, payload = \
                    wire.decode_envelope(body)
            except wire.WireError:
                self._refuse()
                return
            if src in owner._blocked_peers:
                # frames in flight when the partition began, or from a peer
                # whose clock has not reached it yet
                owner._count_drop(protocol, "partition")
                continue
            owner._deliver_local(
                Message(src, dst, protocol, msg_type, payload))
        del buffer[:start]

    def _refuse(self) -> None:
        """An oversized or undecodable frame: one counted drop, and this
        connection closes; the server and every other connection stay up."""
        self.owner._count_drop("live", "frame-error")
        self.buffer.clear()
        self.transport.close()


class LiveTransport(Transport):
    """Seam ``Transport`` over asyncio stream connections."""

    def __init__(self, clock: LiveClock, addresses: Dict[str, Address], *,
                 kind: str = "uds",
                 connect_backoff: BackoffPolicy = DEFAULT_CONNECT,
                 reconnect_backoff: BackoffPolicy = DEFAULT_RECONNECT,
                 max_queue_frames: int = DEFAULT_QUEUE_FRAMES,
                 heartbeat_period: float = 0.0,
                 heartbeat_misses: int = DEFAULT_HEARTBEAT_MISSES) -> None:
        if kind not in ("uds", "tcp"):
            raise TransportError(f"unknown transport kind {kind!r}")
        self.addresses: Dict[str, Address] = dict(addresses)
        # the address book names every id, hosted here or not
        super().__init__(self.addresses)
        #: every id ever registered here: a crashed endpoint unregisters
        #: but stays in its partition group, as a sim node does
        self._hosted: Set[str] = set()
        self.clock = clock
        self._loop = clock._loop
        self.kind = kind
        self._peers: Dict[str, _PeerLink] = {}
        self._servers: List[asyncio.AbstractServer] = []
        #: accepted inbound connections still open
        self._inbound: Set[asyncio.BaseTransport] = set()
        #: connected, unpaused links with frames to write in the next flush
        self._dirty: List[_PeerLink] = []
        self._closing = False

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

    def register(self, node: Any) -> None:
        super().register(node)
        self._hosted.add(node.node_id)

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
        loop = self._loop
        for peer_id, address in self.addresses.items():
            if peer_id in self._nodes:
                continue
            self._probe_tasks.append(
                loop.create_task(self._probe_loop(peer_id, address)))

    async def stop(self) -> None:
        """Cancel probes and dials, write what connected peers still queue
        and close everything; a frame left queued is a ``dst-down`` drop."""
        self._closing = True
        dials = [link.dialing for link in self._peers.values() if link.dialing]
        for task in self._probe_tasks + dials:
            task.cancel()
        await asyncio.gather(*self._probe_tasks, *dials,
                             return_exceptions=True)
        self._probe_tasks.clear()
        for link in self._peers.values():
            connection = link.connection
            if connection is not None and not connection.is_closing():
                if link.frames:
                    self._write(link, connection)
                connection.close()
            self._drop_queued(link, "dst-down")
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
        """Split the network by :meth:`Transport._group_of`'s rule.  Sends
        to (and frames from) every known id outside the group of this
        process's endpoints, crashed ones included, become counted
        ``partition`` drops."""
        group_of = self._group_of(groups)
        own = {group_of.get(node_id, -1) for node_id in self._hosted}
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
        self._loss_probability = float(self._loss_bound(probability))

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
                probe, _ = await asyncio.wait_for(
                    self._open(address, asyncio.Protocol),
                    timeout=self.heartbeat_period * 2)
                probe.close()
            except (OSError, asyncio.TimeoutError):
                missed += 1
                if missed >= self.heartbeat_misses:
                    self._peer_down.add(peer_id)
                continue
            missed = 0
            self._peer_down.discard(peer_id)

    # ---------------------------------------------------------------- sending
    def send(self, src: str, dst: str, *, protocol: str, msg_type: str,
             payload: Any = None, size_bytes: Optional[int] = None) -> bool:
        size = (self.DEFAULT_MESSAGE_BYTES if size_bytes is None
                else int(size_bytes))
        return self._send(src, dst, protocol, msg_type, payload, size,
                          payload)

    def send_many(self, src: str, dsts: Sequence[str], *, protocol: str,
                  msg_type: str, payload: Any = None,
                  size_bytes: Optional[int] = None) -> int:
        """``sum(send(src, d, …) for d in dsts)``, with one payload encoding
        per call: the first remote destination encodes the payload, the
        rest splice that part into their own frame."""
        size = (self.DEFAULT_MESSAGE_BYTES if size_bytes is None
                else int(size_bytes))
        shared = wire.SharedPayload(payload)
        return sum([self._send(src, dst, protocol, msg_type, payload, size,
                               shared) for dst in dsts])

    def _send(self, src: str, dst: str, protocol: str, msg_type: str,
              payload: Any, size: int, framed: Any) -> bool:
        """One destination's checks, accounting and queueing; ``framed`` is
        what the codec is given — ``payload`` or its ``SharedPayload``."""
        if src not in self._nodes:
            if src not in self._known:
                raise KeyError(f"source node {src!r} is not registered")
            self._drop(protocol, size, "src-down")
            return False
        if dst not in self._nodes and dst not in self.addresses:
            raise KeyError(f"destination node {dst!r} is not registered")
        if dst in self._blocked_peers:
            self._drop(protocol, size, "partition")
            return False
        if self._loss_draw():
            self._drop(protocol, size, "loss")
            return False
        if dst in self._peer_down:
            # crash-stop as observed from here: the peer is gone, sends to
            # it degrade to counted drops exactly like sim's failed nodes
            self._drop(protocol, size, "dst-down")
            return False
        stats = self.stats
        stats.sent[protocol] += 1
        stats.bytes_sent[protocol] += size
        if dst in self._nodes:
            # Local fast path: one queue hop through the clock, mirroring a
            # zero-latency simulated delivery (no re-entrant handler calls).
            self.clock.call_after(
                0.0, self._deliver_local,
                arg=Message(src, dst, protocol, msg_type, payload))
            return True
        try:
            frame = wire.encode_envelope(src, dst, protocol, msg_type, framed)
        except wire.WireError:
            self._count_drop(protocol, "encode-error")
            raise
        self._enqueue(dst, protocol, frame)
        return True

    # ------------------------------------------------------- local delivery
    def _deliver_local(self, message: Message) -> None:
        node = self._nodes.get(message.dst)
        if node is None:
            self._count_drop(message.protocol, "departed")
            return
        self.stats.delivered[message.protocol] += 1
        node.deliver(message)

    # ------------------------------------------------------- outbound peers
    def _enqueue(self, dst: str, protocol: str, frame: bytes) -> None:
        link = self._peers.get(dst)
        if link is None:
            link = self._peers[dst] = _PeerLink()
        frames = link.frames
        if len(frames) >= self.max_queue_frames:
            evicted_protocol, _ = frames.popleft()
            self._count_drop(evicted_protocol, "queue-overflow")
        frames.append((protocol, frame))
        if link.connection is None:
            if link.dialing is None:
                self._dial(dst, link)
        elif len(frames) == 1 and not link.paused:
            self._mark_dirty(link)  # its first frame since the last flush

    def _mark_dirty(self, link: _PeerLink) -> None:
        dirty = self._dirty
        if not dirty:
            self._loop.call_soon(self._flush)
        dirty.append(link)

    def _flush(self) -> None:
        """One ``write`` per dirty link; a closing connection's frames wait."""
        dirty, self._dirty = self._dirty, []
        for link in dirty:
            connection = link.connection
            if (link.frames and not link.paused and connection is not None
                    and not connection.is_closing()):
                self._write(link, connection)

    def _write(self, link: _PeerLink, connection: asyncio.Transport) -> None:
        frames = link.frames
        connection.write(frames[0][1] if len(frames) == 1
                         else b"".join([frame for _, frame in frames]))
        if connection.is_closing():  # the socket refused it: gone with these
            self._drop_queued(link, "conn-lost")
        frames.clear()

    def _drop_queued(self, link: _PeerLink, reason: str) -> None:
        for protocol, _ in link.frames:
            self._count_drop(protocol, reason)
        link.frames.clear()

    def _open(self, address: Address, protocol_factory: Any):
        loop = self._loop
        if self.kind == "uds":
            return loop.create_unix_connection(protocol_factory, path=address)
        host, port = address
        return loop.create_connection(protocol_factory, host=host, port=port)

    def _dial(self, dst: str, link: _PeerLink) -> None:
        if self._closing:
            self._drop_queued(link, "dst-down")
        else:
            link.dialing = self._loop.create_task(
                self._connect_with_backoff(dst, link))

    async def _connect_with_backoff(self, dst: str, link: _PeerLink) -> None:
        """Dial ``dst`` under the connect policy (first connect; on give-up
        every queued frame is a ``dst-down`` drop) or the reconnect policy
        (an established connection closed; retry until stopped)."""
        policy = (self.connect_backoff if link.connects == 0
                  else self.reconnect_backoff)
        # seeded per-peer jitter: same (seed, peer) replays the same backoff
        delays: Iterator[float] = policy.delays(
            self.clock.random.stream(f"live.backoff.{dst}"))
        started = self.clock.now
        try:
            while True:
                with contextlib.suppress(OSError):
                    connection, _ = await self._open(
                        self.addresses[dst],
                        lambda: _OutboundFrames(self, dst, link))
                    if not connection.is_closing():
                        break       # else closed before this task resumed
                delay = next(delays)
                if (policy.max_elapsed is not None
                        and self.clock.now + delay - started
                        > policy.max_elapsed):
                    self._drop_queued(link, "dst-down")
                    return
                await asyncio.sleep(delay)
            link.connection = connection
            link.connects += 1
            if link.connects > 1:
                self.reconnects += 1
            if link.frames:
                self._mark_dirty(link)
        finally:
            link.dialing = None
