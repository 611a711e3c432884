"""Per-node control channel: how the chaos controller reaches inside a node.

Every node process of a live deployment binds a small UNIX-socket
control server next to its transport.  The parent's
:class:`~repro.live.chaos.LiveFaultController` uses it to push the fault
rules a real signal cannot express — partitions and loss probabilities are
*network* behaviour, so they are enforced by :class:`LiveTransport` drop
rules rather than by killing anything:

* ``{"op": "partition", "blocked": [...]}`` — sends to (and frames from)
  the listed peers become counted ``partition`` drops;
* ``{"op": "heal"}`` — clear the blocked set;
* ``{"op": "set_loss", "probability": p}`` — seeded Bernoulli ``loss``
  drops at send time;
* ``{"op": "ping"}`` — liveness + introspection: returns the node's clock,
  reconnect count and a ``NetworkStats`` snapshot.

The wire format is the deployment's usual length-prefixed framing with a
plain-JSON body (no tagged payloads needed — control requests are flat
dicts).  Each request gets exactly one response frame; the client opens a
fresh connection per call, which keeps it a dozen lines of blocking socket
code the parent can use without an event loop.  Control sockets are always
UNIX-domain, even for TCP transports — the controller runs on the same
host by construction.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import socket
import struct
from typing import Any, Dict, Optional

from repro.transport.errors import TransportError

_HEADER = struct.Struct(">I")

#: control frames are tiny; anything bigger is a protocol violation
MAX_CONTROL_BYTES = 1 << 20


class ControlError(TransportError):
    """A control request could not be delivered or answered."""


def control_address(rundir: str, node_id: str) -> str:
    return os.path.join(rundir, "ctl", f"{node_id}.sock")


def _frame(obj: Dict[str, Any]) -> bytes:
    body = json.dumps(obj, sort_keys=True).encode("utf-8")
    if len(body) > MAX_CONTROL_BYTES:
        raise ControlError(f"control frame too large ({len(body)} bytes)")
    return _HEADER.pack(len(body)) + body


class ControlServer:
    """Asyncio side: answers control requests inside a node process."""

    def __init__(self, transport: Any, node_id: str, address: str) -> None:
        self.transport = transport
        self.node_id = node_id
        self.address = address
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self.address)  # stale socket from a previous incarnation
        self._server = await asyncio.start_unix_server(self._serve,
                                                       path=self.address)

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        with contextlib.suppress(OSError):
            os.unlink(self.address)

    async def _serve(self, reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                try:
                    header = await reader.readexactly(_HEADER.size)
                    (length,) = _HEADER.unpack(header)
                    if length > MAX_CONTROL_BYTES:
                        break
                    body = await reader.readexactly(length)
                except (asyncio.IncompleteReadError, ConnectionError, OSError):
                    break
                try:
                    request = json.loads(body)
                    response = self._handle(request)
                except Exception as exc:  # noqa: BLE001 - reply, don't die
                    response = {"ok": False,
                                "error": f"{type(exc).__name__}: {exc}"}
                writer.write(_frame(response))
                try:
                    await writer.drain()
                except (ConnectionError, OSError):
                    break
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    def _handle(self, request: Any) -> Dict[str, Any]:
        """Answer one decoded request.

        The body arrives from outside the process, so every field is
        checked before the transport is touched: a request that is rejected
        (here, or by the transport's own range check) has changed nothing.
        """
        if not isinstance(request, dict):
            raise ValueError("control request must be a JSON object")
        op = request.get("op")
        if op == "partition":
            blocked = request.get("blocked")
            # a bare string would iterate as its characters
            if (not isinstance(blocked, list)
                    or not all(isinstance(peer, str) for peer in blocked)):
                raise ValueError("'blocked' must be a list of node ids")
            self.transport.set_blocked_peers(blocked)
            return {"ok": True}
        if op == "heal":
            self.transport.set_blocked_peers(())
            return {"ok": True}
        if op == "set_loss":
            probability = request.get("probability")
            if (isinstance(probability, bool)
                    or not isinstance(probability, (int, float))):
                raise ValueError("'probability' must be a number")
            self.transport.set_loss_probability(float(probability))
            return {"ok": True}
        if op == "ping":
            return {"ok": True, "node_id": self.node_id,
                    "pid": os.getpid(),
                    "now": self.transport.clock.now,
                    "reconnects": self.transport.reconnects,
                    "stats": self.transport.stats.snapshot()}
        return {"ok": False, "error": f"unknown control op {op!r}"}


class ControlClient:
    """Blocking side: one connection, one request, one response.

    Used from the parent process (no event loop there); a connect or read
    failure raises :class:`ControlError`, which the chaos controller treats
    as "node not answering yet — retry next tick".
    """

    def __init__(self, address: str, *, timeout: float = 1.0) -> None:
        self.address = address
        self.timeout = timeout

    def call(self, request: Dict[str, Any]) -> Dict[str, Any]:
        try:
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(self.timeout)
                sock.connect(self.address)
                sock.sendall(_frame(request))
                header = self._recv_exactly(sock, _HEADER.size)
                (length,) = _HEADER.unpack(header)
                if length > MAX_CONTROL_BYTES:
                    raise ControlError("oversized control response")
                body = self._recv_exactly(sock, length)
        except (ConnectionError, OSError, socket.timeout) as exc:
            raise ControlError(
                f"control call to {self.address} failed: {exc}") from exc
        response = json.loads(body)
        if not response.get("ok", False):
            raise ControlError(
                f"control op rejected: {response.get('error', response)!r}")
        return response

    @staticmethod
    def _recv_exactly(sock: socket.socket, n: int) -> bytes:
        chunks = []
        remaining = n
        while remaining:
            chunk = sock.recv(remaining)
            if not chunk:
                raise ConnectionError("control peer closed mid-frame")
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)
