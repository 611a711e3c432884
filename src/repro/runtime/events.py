"""Instrumentation event bus.

The seed reproduction wired deployment-level reporting by monkey-patching
private callbacks on each object's resolution manager.  The bus replaces that
with explicit publish/subscribe: middleware and runtime components *publish*
typed events, and deployment-level reporting, the trace recorder, and tests
*subscribe* — no component writes to another's private attributes.

Events are small frozen dataclasses.  Publishing is deliberately cheap: a
single dict lookup when nobody subscribed to the event type.  Hot-path
publishers that would otherwise allocate an event per call guard with
``event_type in bus.wants`` first — a membership test, no call.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Tuple, Type

from repro.versioning.values import frozen_value


@frozen_value
class WriteRecorded:
    """A local write was applied through IDEA on one node."""

    object_id: str
    node_id: str
    time: float


@dataclass(frozen=True)
class DetectionEvaluated:
    """One ``detect(update)`` evaluation completed on a node."""

    object_id: str
    node_id: str
    success: bool
    level: float
    time: float


@dataclass(frozen=True)
class ResolutionCompleted:
    """A resolution round finished (successfully) with ``initiator`` leading.

    ``result`` is the full :class:`~repro.core.resolution.ResolutionResult`.
    """

    object_id: str
    initiator: str
    kind: str                   # "active" | "background"
    result: Any
    time: float


@dataclass(frozen=True)
class BackgroundRoundStarted:
    """A scheduled background-resolution round was initiated."""

    object_id: str
    initiator: str
    time: float


@dataclass(frozen=True)
class ClientOpCompleted:
    """A traffic-driver client finished one operation against an object.

    ``kind`` is ``"read"`` or ``"write"``.  ``level`` is the consistency
    level the op observed (the read's reported level, or the write's
    detection outcome; NaN when a write was blocked by an in-flight
    resolution round).  Published by the
    :class:`~repro.workloads.driver.TrafficDriver` only when someone
    subscribed — un-probed runs allocate nothing per op.
    """

    object_id: str
    node_id: str
    stream_id: str
    kind: str
    level: float
    time: float


Handler = Callable[[Any], None]


class EventBus:
    """Synchronous, in-process publish/subscribe keyed by event type."""

    __slots__ = ("_subscribers", "wants")

    def __init__(self) -> None:
        #: event type -> its handlers; a type with none has no entry
        self._subscribers: Dict[Type, List[Handler]] = {}
        #: the event types somebody listens for (read-only view):
        #: publishers on hot paths test ``event_type in bus.wants`` before
        #: allocating an event
        self.wants: Mapping[Type, List[Handler]] = MappingProxyType(
            self._subscribers)

    def subscribe(self, event_type: Type, handler: Handler) -> Callable[[], None]:
        """Register ``handler`` for events of ``event_type``; returns an
        unsubscribe function."""
        subscribers = self._subscribers
        subscribers.setdefault(event_type, []).append(handler)

        def unsubscribe() -> None:
            handlers = subscribers.get(event_type)
            if handlers is None or handler not in handlers:
                return
            handlers.remove(handler)
            if not handlers:
                del subscribers[event_type]

        return unsubscribe

    def publish(self, event: Any) -> int:
        """Deliver ``event`` to its type's subscribers; returns the count."""
        handlers = self._subscribers.get(type(event))
        if not handlers:
            return 0
        for handler in tuple(handlers):
            handler(event)
        return len(handlers)

    def subscriptions(self) -> List[Tuple[Type, int]]:
        """(event type, subscriber count) pairs, for introspection."""
        return [(t, len(hs)) for t, hs in self._subscribers.items() if hs]
