"""Backend-neutral protocol endpoint.

:class:`ProtocolEndpoint` provides the plumbing every protocol participant
needs, independent of whether messages travel through the discrete-event
:class:`~repro.sim.network.Network` or the asyncio sockets of
:mod:`repro.live`:

* registration with the transport,
* a dispatch table from message type to handler method,
* a request/response RPC layer built on top of one-way messages (used by the
  resolution protocols: call-for-attention, version-info collection, update
  push),
* crash-stop lifecycle (``fail``/``recover``), and
* a one-shot timer helper (``call_after``).

Protocol components (detection module, resolution manager, overlay manager,
application logic) are attached to an endpoint as collaborators rather than
subclasses, keeping each module small and testable.
:class:`~repro.sim.node.Node` subclasses this with a simulated drifting
clock; a live node is this class itself, on a
:class:`~repro.live.clock.LiveClock` (wall time, no processing delay).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.transport.errors import RPCError
from repro.transport.message import Message
from repro.transport.tasks import Waiter


@dataclass
class _PendingRequest:
    waiter: Waiter
    timeout_event: Any

    def settle(self, result: Any) -> None:
        """Complete the RPC: cancel the armed timeout, then wake the caller.

        Every completion path — response, remote error, crash, unreachable
        destination, or an unexpected send failure — funnels through here,
        so an exceptionally-completed RPC can never leak its timeout handle
        into the clock's queue (the ``_PendingRequest`` lifecycle audit that
        motivated the transport seam).
        """
        if self.timeout_event is not None:
            self.timeout_event.cancel()
            self.timeout_event = None
        self.waiter.trigger(result)


class ProtocolEndpoint:
    """A host participating in a deployment, over any transport backend."""

    #: per-message processing overhead (seconds) charged before a reply is
    #: issued, standing in for the "computing overhead" the paper attributes
    #: to phase two of active resolution (version-vector comparison etc.).
    DEFAULT_PROCESSING_DELAY = 0.002
    #: whether a resolution round charges the modelled per-peer dispatch
    #: cost of its phase-1 fan-out (a wall clock pays the real one)
    models_dispatch_cost = False

    def __init__(self, clock, transport, node_id: str, *,
                 processing_delay: Optional[float] = None) -> None:
        if processing_delay is None:
            processing_delay = self.DEFAULT_PROCESSING_DELAY
        elif not 0 <= processing_delay < math.inf:  # NaN fails it too
            raise ValueError("processing_delay must be finite and "
                             f"non-negative, got {processing_delay!r}")
        self.clock = clock
        self.transport = transport
        self.node_id = node_id
        self.processing_delay = processing_delay
        self._handlers: Dict[str, Callable[[Message], Any]] = {}
        self._pending: Dict[int, _PendingRequest] = {}
        self._request_counter = itertools.count()
        #: False between :meth:`fail` and :meth:`recover` (crash-stop)
        self.alive = True
        #: run when this endpoint crashes (e.g. a resolution manager
        #: resetting its in-flight state)
        self.fail_hooks: List[Callable[[], None]] = []
        transport.register(self)
        self.register_handler("__rpc_request__", self._handle_rpc_request)
        self.register_handler("__rpc_response__", self._handle_rpc_response)

    # -------------------------------------------------------------- lifecycle
    def fail(self) -> None:
        """Take the endpoint offline (crash-stop model).

        Beyond unregistering from the transport, a crash is made *clean*:
        pending RPCs are failed promptly (their waiters fire with an error
        instead of dangling forever, their timeout timers are cancelled).
        Periodic protocol timers keep running: a round that must not act
        for a crashed node checks liveness when it fires, and whatever a
        crashed node still sends is a counted ``src-down`` drop.
        """
        if not self.alive:
            return
        self.alive = False
        self.transport.unregister(self.node_id)
        pending, self._pending = self._pending, {}
        for request in pending.values():
            request.settle(("error", f"{self.node_id} crashed"))
        for hook in self.fail_hooks:
            hook()

    def recover(self) -> None:
        """Bring a failed endpoint back online."""
        if self.alive:
            return
        self.alive = True
        self.transport.register(self)
        # Any request state surviving the crash is stale; a late
        # __rpc_response__ for a pre-crash request must not be mis-routed.
        self._pending.clear()

    def close(self) -> None:
        """Teardown: deliver and send nothing more (so no handler arms a
        timer), and cancel every pending RPC's timeout, settling none."""
        self.alive = False
        pending, self._pending = self._pending, {}
        for request in pending.values():
            if request.timeout_event is not None:
                request.timeout_event.cancel()

    # ------------------------------------------------------------------ time
    def local_time(self) -> float:
        """This node's local clock reading (backends may skew it)."""
        return self.clock.now

    def call_after(self, delay: float, callback: Callable[[], None], *,
                   label: str = "") -> Any:
        return self.clock.call_after(delay, callback,
                                     label=f"{self.node_id}:{label}")

    # ------------------------------------------------------------- messaging
    def register_handler(self, msg_type: str,
                         handler: Callable[[Message], Any]) -> None:
        """Register a handler for one-way messages of type ``msg_type``."""
        self._handlers[msg_type] = handler

    def register_rpc(self, method: str, handler: Callable[[Any], Any]) -> None:
        """Register an RPC method callable via :meth:`request`."""
        self._handlers[f"rpc:{method}"] = handler

    def send(self, dst: str, *, protocol: str, msg_type: str, payload: Any = None,
             size_bytes: Optional[int] = None) -> bool:
        """Send a one-way message; True if it left."""
        if not self.alive:
            return False
        return self.transport.send(self.node_id, dst, protocol=protocol,
                                   msg_type=msg_type, payload=payload,
                                   size_bytes=size_bytes)

    def send_many(self, dsts, *, protocol: str, msg_type: str,
                  payload: Any = None, size_bytes: Optional[int] = None) -> int:
        """Fan one payload out to many destinations (see Transport.send_many)."""
        if not self.alive:
            return 0
        return self.transport.send_many(self.node_id, dsts, protocol=protocol,
                                        msg_type=msg_type, payload=payload,
                                        size_bytes=size_bytes)

    def deliver(self, message: Message) -> None:
        """Entry point used by the transport to hand over a message."""
        if not self.alive:
            return
        handler = self._handlers.get(message.msg_type)
        if handler is None:
            raise KeyError(
                f"node {self.node_id!r} has no handler for {message.msg_type!r}")
        handler(message)

    # ------------------------------------------------------------------- rpc
    def request(self, dst: str, method: str, payload: Any = None, *,
                protocol: str, timeout: Optional[float] = None,
                size_bytes: Optional[int] = None) -> Waiter:
        """Issue an RPC; the returned waiter is triggered with the response.

        The waiter's value is ``("ok", result)`` on success, ``("error", msg)``
        if the remote handler raised, or ``("timeout", None)`` if ``timeout``
        elapsed first.  :func:`unwrap_response` converts this into a value or
        an :class:`RPCError`.
        """
        waiter = Waiter(self.clock)
        if not self.alive:
            waiter.trigger(("error", f"{self.node_id} is offline"))
            return waiter
        request_id = next(self._request_counter)
        timeout_event = None
        if timeout is not None:
            timeout_event = self.clock.call_after(
                timeout, lambda: self._timeout_request(request_id),
                label=f"{self.node_id}:rpc-timeout")
        pending = _PendingRequest(waiter, timeout_event)
        self._pending[request_id] = pending
        try:
            sent = self.send(dst, protocol=protocol,
                             msg_type="__rpc_request__",
                             payload={"request_id": request_id,
                                      "method": method,
                                      "args": payload,
                                      "reply_to": self.node_id,
                                      "protocol": protocol},
                             size_bytes=size_bytes)
        except KeyError:
            # Destination id was never registered (a wiring bug): fail the
            # RPC rather than blowing up the caller.
            self._pending.pop(request_id, None)
            pending.settle(("error", f"destination {dst!r} is unreachable"))
            return waiter
        except BaseException:
            # The transport failed in an unexpected way.  The exception
            # propagates to the caller, but the request is dead: settling it
            # here cancels the armed timeout so the handle cannot leak into
            # the clock's queue and fire a phantom ("timeout", None) later.
            self._pending.pop(request_id, None)
            pending.settle(("error", f"send to {dst!r} failed"))
            raise
        if not sent and timeout is None:
            # The request was dropped at send time (crashed or partitioned
            # destination, or a loss-model drop) and no timeout is armed.
            # Without this the waiter would dangle forever; erring on the
            # side of sender-side omniscience keeps the simulation hang-free.
            self._pending.pop(request_id, None)
            pending.settle(("error", f"destination {dst!r} is unreachable"))
        return waiter

    def _timeout_request(self, request_id: int) -> None:
        pending = self._pending.pop(request_id, None)
        if pending is not None:
            pending.timeout_event = None  # it just fired; nothing to cancel
            pending.settle(("timeout", None))

    def _handle_rpc_request(self, message: Message) -> None:
        payload = message.payload
        method = payload["method"]
        handler = self._handlers.get(f"rpc:{method}")

        def respond() -> None:
            if handler is None:
                result = ("error", f"unknown RPC method {method!r} on {self.node_id}")
            else:
                try:
                    result = ("ok", handler(payload["args"]))
                except Exception as exc:  # noqa: BLE001 - propagate to caller
                    result = ("error", f"{type(exc).__name__}: {exc}")
            self.send(payload["reply_to"], protocol=payload["protocol"],
                      msg_type="__rpc_response__",
                      payload={"request_id": payload["request_id"], "result": result})

        if self.processing_delay > 0:
            self.clock.call_after(self.processing_delay, respond,
                                  label=f"{self.node_id}:rpc-process:{method}")
        else:
            respond()

    def _handle_rpc_response(self, message: Message) -> None:
        payload = message.payload
        pending = self._pending.pop(payload["request_id"], None)
        if pending is None:
            return  # response after timeout; ignore
        pending.settle(payload["result"])


def unwrap_response(result: Any) -> Any:
    """Convert an RPC waiter value into the handler result or raise RPCError."""
    status, value = result
    if status == "ok":
        return value
    raise RPCError(str(value) if value is not None else status)
