"""The traced pass: one table of trace points, one in-memory span stack.

Everything the ledger knows about *where* time goes is defined here and
nowhere else.  ``TRACE_POINTS`` maps each per-layer name to the public
callables it wraps; ``LABEL_POINTS`` and ``PROTOCOL_POINTS`` attribute the
work that no public callable brackets — scheduled callbacks (by the
``label=`` every ``call_at``/``call_after`` site already passes) and
message-driven work (by ``message.protocol`` at ``ProtocolEndpoint
.deliver``).  With the three tables every µs of ``Simulator.run`` is
either a named child span or engine self-time.

The wrappers live in this file, not in ``src/`` (spans inside the program
are a later issue).  They push/pop one span stack, change no behaviour
(same events, same order — the harness cross-checks the deterministic
counters of a traced and an untraced replay), and are installed before the
deployment is built and removed afterwards, leaving every patched
attribute identical to the original.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``op`` the id of the client op that
caused it — an op id is minted when a load-generator callback fires
(``traffic`` / ``wl:`` labels, or the live harness' writer) and inherited
by everything scheduled while it is current, so it survives message hops
and timer reschedules.  Per-point call counts and self-times (duration
minus the part covered by child spans) are accumulated as spans close;
the raw spans are kept only when a ``--trace-out`` path asks for them.
"""

from __future__ import annotations

import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: trace point -> [(module, class or None, attribute), ...].  Class methods
#: are patched on the class, module functions on the module; both are looked
#: up dynamically by their callers, so a class-level patch covers every
#: instance built afterwards.
TRACE_POINTS: Dict[str, List[Tuple[str, Optional[str], str]]] = {
    "core.middleware.read": [("repro.core.middleware", "IdeaMiddleware", "read")],
    "core.middleware.write": [("repro.core.middleware", "IdeaMiddleware", "write")],
    "core.middleware.truncate_stable": [
        ("repro.core.middleware", "IdeaMiddleware", "truncate_stable")],
    "core.middleware.trigger_active_resolution": [
        ("repro.core.middleware", "IdeaMiddleware", "trigger_active_resolution")],
    "core.detection.detect": [("repro.core.detection", "DetectionService", "detect")],
    "core.detection.announce_write": [
        ("repro.core.detection", "DetectionService", "announce_write")],
    "core.detection.ingest_digest": [
        ("repro.core.detection", "DetectionService", "ingest_digest")],
    "core.detection.current_level": [
        ("repro.core.detection", "DetectionService", "current_level")],
    "core.detection.stability_frontier": [
        ("repro.core.detection", "DetectionService", "stability_frontier")],
    "runtime.digest_cache.local_digest": [
        ("repro.runtime.digest_cache", "DigestCache", "local_digest")],
    "store.write": [("repro.store.filesystem", "ReplicatedStore", "write")],
    "store.install_merged": [("repro.store.replica", "Replica", "install_merged")],
    "store.truncate_stable": [("repro.store.replica", "Replica", "truncate_stable")],
    "versioning.merge": [
        ("repro.versioning.extended_vector", "ExtendedVersionVector", "merge")],
    "overlay.top_layer": [("repro.overlay.two_layer", "TwoLayerOverlay", "top_layer")],
    "overlay.record_update": [
        ("repro.overlay.two_layer", "TwoLayerOverlay", "record_update")],
    "transport.endpoint.deliver": [
        ("repro.transport.endpoint", "ProtocolEndpoint", "deliver")],
    "transport.endpoint.request": [
        ("repro.transport.endpoint", "ProtocolEndpoint", "request")],
    "sim.network.send": [("repro.sim.network", "Network", "send")],
    "sim.network.send_many": [("repro.sim.network", "Network", "send_many")],
    "sim.engine.run": [("repro.sim.engine", "Simulator", "run")],
    "live.wire.encode": [("repro.live.wire", None, "encode_envelope")],
    "live.wire.decode": [("repro.live.wire", None, "decode_envelope")],
    "live.transport.send": [("repro.live.transport", "LiveTransport", "send"),
                            ("repro.live.transport", "LiveTransport", "send_many")],
}

#: schedulers whose ``label=`` tags the callback they queue.  ``LiveClock
#: .call_at`` delegates to ``call_after``, so patching the latter covers both.
SCHEDULERS: List[Tuple[str, str, str]] = [
    ("repro.sim.engine", "Simulator", "call_at"),
    ("repro.sim.engine", "Simulator", "call_after"),
    ("repro.live.clock", "LiveClock", "call_after"),
]

#: (match kind, needle, trace point) — first match wins; a label that matches
#: nothing (bare timers, ``wl:`` load-generator ticks, waiter hand-offs) runs
#: without a span of its own, i.e. as self-time of whatever dispatched it
#: (``sim.engine.run`` on the simulator).
LABEL_POINTS: List[Tuple[str, str, str]] = [
    ("prefix", "traffic-truncate", "workloads.driver.truncate_tick"),
    ("prefix", "traffic", "workloads.driver.issue"),
    ("prefix", "deliver:", "sim.network.deliver"),
    ("prefix", "gossip-round", "overlay.gossip"),
    ("prefix", "ransub-round", "overlay.ransub"),
    ("prefix", "bg:", "core.resolution.round"),
    ("contains", "-resolution:", "core.resolution.round"),
    ("contains", ":rpc-process:idea_", "core.resolution.round"),
    ("contains", ":rpc-timeout", "core.resolution.round"),
    ("contains", ":block-guard:", "core.resolution.round"),
    ("prefix", "fault:", "scenarios.injector.fault"),
]


def _is_client_op(label: str) -> bool:
    """Labels whose callback is a client op arriving (mints a fresh op id)."""
    return label == "traffic" or label.startswith("wl:")


#: ``message.protocol`` prefix -> the layer a delivered message works for,
#: opened as a child span of ``transport.endpoint.deliver`` (detection
#: messages need none: their handler is the wrapped ``ingest_digest`` /
#: ``current_level`` pair, the remaining glue stays with the endpoint)
PROTOCOL_POINTS: List[Tuple[str, str]] = [
    ("idea.resolution.", "core.resolution.round"),
    ("overlay.gossip", "overlay.gossip"),
    ("overlay.ransub", "overlay.ransub"),
]

#: every point a span can be named after, in report order
POINT_NAMES: List[str] = [
    "workloads.driver.issue", "workloads.driver.truncate_tick",
    "core.middleware.read", "core.middleware.write",
    "core.middleware.truncate_stable",
    "core.middleware.trigger_active_resolution",
    "core.detection.detect", "core.detection.announce_write",
    "core.detection.ingest_digest", "core.detection.current_level",
    "core.detection.stability_frontier",
    "runtime.digest_cache.local_digest", "store.write",
    "store.install_merged", "store.truncate_stable", "versioning.merge",
    "core.resolution.round", "overlay.top_layer", "overlay.record_update",
    "overlay.gossip", "overlay.ransub", "transport.endpoint.deliver",
    "transport.endpoint.request", "sim.network.send",
    "sim.network.send_many", "sim.network.deliver", "sim.engine.run",
    "scenarios.injector.fault", "live.wire.encode", "live.wire.decode",
    "live.transport.send",
]


assert set(POINT_NAMES) == (set(TRACE_POINTS)
                            | {point for _, _, point in LABEL_POINTS}
                            | {point for _, point in PROTOCOL_POINTS})


def _resolve(module: str, cls: Optional[str]) -> Any:
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls is not None else owner


class Tracer:
    """Span stack plus per-point accumulators; install()/remove() patch."""

    def __init__(self, *, keep_spans: bool = False) -> None:
        self.calls: Dict[str, int] = {name: 0 for name in POINT_NAMES}
        self.self_time: Dict[str, float] = {name: 0.0 for name in POINT_NAMES}
        #: id of the client op whose work is running right now (0 = none)
        self.op = 0
        self._next_op = 0
        #: open spans, innermost last: [name, start, child seconds, index]
        self._stack: List[list] = []
        self._spans: Optional[List[list]] = [] if keep_spans else None
        self._label_cache: Dict[str, Tuple[Optional[str], bool]] = {}
        self._patched: List[Tuple[Any, str, Any]] = []
        # side counters read at the same boundaries
        self.detect_conflicts = 0
        self.top_layer_members = 0
        self.rpc_timeouts = 0
        self.frame_bytes: List[int] = []
        self.wire_errors = 0

    # ----------------------------------------------------------- span stack
    def push(self, name: str) -> list:
        spans = self._spans
        index = -1
        if spans is not None:
            index = len(spans)
            parent = self._stack[-1][3] if self._stack else -1
            spans.append([name, 0.0, 0.0, parent, self.op])
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        name, start, children, index = frame
        duration = end - start
        self.calls[name] += 1
        self.self_time[name] += duration - children
        if stack:
            stack[-1][2] += duration
        if index >= 0:
            span = self._spans[index]
            span[1] = start
            span[2] = end

    def begin_op(self) -> int:
        """Mint the id of a client op that starts now (live harness)."""
        self._next_op += 1
        self.op = self._next_op
        return self.op

    def snapshot(self) -> Dict[str, Any]:
        """Accumulators as plain data (subtract two to scope to a window)."""
        return {"calls": dict(self.calls), "self_time": dict(self.self_time),
                "detect_conflicts": self.detect_conflicts,
                "top_layer_members": self.top_layer_members,
                "rpc_timeouts": self.rpc_timeouts}

    # ------------------------------------------------------------- wrappers
    def _span_wrapper(self, name: str, fn: Callable,
                      observe: Optional[Callable[[Any], None]] = None) -> Callable:
        push, pop = self.push, self.pop
        tracer = self
        counts_errors = name.startswith("live.wire.")

        def traced(*args, **kwargs):
            frame = push(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if counts_errors:
                    tracer.wire_errors += 1
                raise
            finally:
                pop(frame)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _deliver_wrapper(self, fn: Callable) -> Callable:
        """``ProtocolEndpoint.deliver``: own span, plus the protocol's layer."""
        push, pop = self.push, self.pop
        layer_of: Dict[str, Optional[str]] = {}

        def traced(endpoint, message):
            protocol = message.protocol
            try:
                layer = layer_of[protocol]
            except KeyError:
                layer = layer_of[protocol] = next(
                    (point for prefix, point in PROTOCOL_POINTS
                     if protocol.startswith(prefix)), None)
            frame = push("transport.endpoint.deliver")
            try:
                if layer is None:
                    return fn(endpoint, message)
                inner = push(layer)
                try:
                    return fn(endpoint, message)
                finally:
                    pop(inner)
            finally:
                pop(frame)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _point_for_label(self, label: str) -> Tuple[Optional[str], bool]:
        cached = self._label_cache.get(label)
        if cached is None:
            point = None
            for kind, needle, name in LABEL_POINTS:
                if (label.startswith(needle) if kind == "prefix"
                        else needle in label):
                    point = name
                    break
            cached = self._label_cache[label] = (point, _is_client_op(label))
        return cached

    def tag(self, callback: Callable, label: str) -> Callable:
        """Wrap a callback being scheduled under ``label``.

        The wrapper restores the causing op id (or mints one for a
        load-generator tick) and opens the label's span, if it has one.
        """
        point, mints_op = self._point_for_label(label)
        op = self.op
        tracer = self
        push, pop = self.push, self.pop
        counts_timeout = label.endswith(":rpc-timeout")

        def scheduled(*args):
            if mints_op:
                tracer._next_op += 1
                tracer.op = tracer._next_op
            else:
                tracer.op = op
            if counts_timeout:
                tracer.rpc_timeouts += 1
            if point is None:
                return callback(*args)
            frame = push(point)
            try:
                return callback(*args)
            finally:
                pop(frame)

        return scheduled

    def _scheduler_wrapper(self, fn: Callable) -> Callable:
        tag = self.tag

        def traced(clock, when, callback, **kwargs):
            return fn(clock, when, tag(callback, kwargs.get("label", "")),
                      **kwargs)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _observers(self) -> Dict[str, Callable[[Any], None]]:
        """Ratios measured at a trace point's own boundary: what to note
        about the value a wrapped callable returned."""
        def conflict(outcome: Any) -> None:
            self.detect_conflicts += not outcome.success

        def top_layer(members: Any) -> None:
            self.top_layer_members += len(members)

        def frame(encoded: bytes) -> None:
            self.frame_bytes.append(len(encoded))

        return {"core.detection.detect": conflict,
                "overlay.top_layer": top_layer,
                "live.wire.encode": frame}

    # ------------------------------------------------------ install / remove
    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> "Tracer":
        if self._patched:
            raise RuntimeError("tracer already installed")
        observers = self._observers()
        for name, targets in TRACE_POINTS.items():
            for module, cls, attr in targets:
                owner = _resolve(module, cls)
                original = owner.__dict__[attr]
                if name == "transport.endpoint.deliver":
                    wrapper = self._deliver_wrapper(original)
                else:
                    wrapper = self._span_wrapper(name, original,
                                                 observers.get(name))
                self._patch(owner, attr, wrapper)
        for module, cls, attr in SCHEDULERS:
            owner = _resolve(module, cls)
            self._patch(owner, attr,
                        self._scheduler_wrapper(owner.__dict__[attr]))
        return self

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ dump
    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSONL; returns how many were written."""
        spans = self._spans or []
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, op in spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "op": op}) + "\n")
        return len(spans)


def patched_attributes() -> List[Tuple[Any, str]]:
    """Every (owner, attribute) install() replaces — for the identity test."""
    targets = [(module, cls, attr) for entries in TRACE_POINTS.values()
               for module, cls, attr in entries] + SCHEDULERS
    return [(_resolve(module, cls), attr) for module, cls, attr in targets]
