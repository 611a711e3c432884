"""Per-node runtime hosting many IDEA-managed objects.

The seed reproduction instantiated a fully independent middleware stack per
(node, object) pair: each object carried its own digest tables, its own
backoff random stream, and its own wiring back to the deployment.  One
:class:`NodeRuntime` per simulated node replaces that: it owns the resources
that are naturally node-scoped — the shared :class:`~repro.runtime
.digest_cache.DigestCache`, the resolution backoff stream, the
:class:`~repro.runtime.events.EventBus` used for instrumentation — and hosts
every object the node participates in behind an :class:`ObjectRegistry`.

:class:`~repro.core.middleware.IdeaMiddleware` remains the per-object entry
point, but it is now a thin facade constructed through
:meth:`NodeRuntime.attach`; all cross-object state lives here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from repro.runtime.digest_cache import DigestCache
from repro.runtime.events import EventBus

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.config import IdeaConfig
    from repro.core.middleware import IdeaMiddleware
    from repro.core.policies import ResolutionPolicy


class ObjectRegistry:
    """The set of IDEA-managed objects hosted by one node runtime."""

    __slots__ = ("_objects",)

    def __init__(self) -> None:
        self._objects: Dict[str, "IdeaMiddleware"] = {}

    def add(self, object_id: str, middleware: "IdeaMiddleware") -> None:
        if object_id in self._objects:
            raise ValueError(f"object {object_id!r} already attached")
        self._objects[object_id] = middleware

    def remove(self, object_id: str) -> Optional["IdeaMiddleware"]:
        return self._objects.pop(object_id, None)

    def get(self, object_id: str) -> "IdeaMiddleware":
        return self._objects[object_id]

    def object_ids(self) -> List[str]:
        return sorted(self._objects)

    def __contains__(self, object_id: str) -> bool:
        return object_id in self._objects

    def __len__(self) -> int:
        return len(self._objects)

    def __iter__(self) -> Iterator["IdeaMiddleware"]:
        return iter(self._objects.values())


class NodeRuntime:
    """One runtime per simulated node, shared by all objects it hosts."""

    def __init__(self, node, store, *, bus: Optional[EventBus] = None) -> None:
        """
        Parameters
        ----------
        node:
            The :class:`~repro.transport.endpoint.ProtocolEndpoint` this runtime
            manages (a simulated or live node).
        store:
            The node's :class:`repro.store.filesystem.ReplicatedStore`.
        bus:
            Instrumentation bus; a deployment passes one shared bus so its
            reporting sees every node, a standalone runtime gets its own.
        """
        self.node = node
        self.store = store
        self.bus = bus if bus is not None else EventBus()
        #: local version digests memoised by replica revision, and the peer
        #: digest tables, shared by every object this node hosts
        self.digests = DigestCache()
        #: one backoff stream per node, shared by every object's resolution
        #: manager instead of spawning a stream per (node, object)
        self.backoff_rng = node.clock.random.stream(
            f"runtime.backoff.{node.node_id}")
        self.registry = ObjectRegistry()

    @property
    def node_id(self) -> str:
        return self.node.node_id

    # ---------------------------------------------------------- object mgmt
    def attach(self, object_id: str, config: "IdeaConfig", *,
               top_layer_provider,
               policy: Optional["ResolutionPolicy"] = None) -> "IdeaMiddleware":
        """Create the per-object facade for ``object_id`` on this node."""
        from repro.core.middleware import IdeaMiddleware

        middleware = IdeaMiddleware(
            self.node, self.store, object_id, config=config,
            top_layer_provider=top_layer_provider,
            policy=policy, runtime=self)
        return middleware

    def adopt(self, object_id: str, middleware: "IdeaMiddleware") -> None:
        """Register a facade constructed directly (used by the middleware)."""
        self.registry.add(object_id, middleware)

    def detach(self, object_id: str) -> None:
        """Drop an object from this node: registry entry and digest state."""
        self.registry.remove(object_id)
        self.digests.forget_object(object_id)

    def middleware(self, object_id: str) -> "IdeaMiddleware":
        return self.registry.get(object_id)

    def object_ids(self) -> List[str]:
        return self.registry.object_ids()

    def __contains__(self, object_id: str) -> bool:
        return object_id in self.registry

    def __len__(self) -> int:
        return len(self.registry)
