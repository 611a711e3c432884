"""The resources one node shares across every IDEA-managed object it hosts.

:class:`NodeRuntime` holds what is naturally node-scoped — the node's
endpoint and store, the shared :class:`~repro.runtime.digest_cache
.DigestCache`, the resolution backoff stream and the
:class:`~repro.runtime.events.EventBus` used for instrumentation — and
nothing else.  :meth:`~repro.core.deployment.IdeaDeployment.register_object`
builds one :class:`~repro.core.middleware.IdeaMiddleware` per (node, object)
over it; the deployment's ``ManagedObject`` tables are the one record of
which objects a node hosts.
"""

from __future__ import annotations

from repro.runtime.digest_cache import DigestCache
from repro.runtime.events import EventBus


class NodeRuntime:
    """One runtime per node, shared by all objects it hosts."""

    def __init__(self, node, store, *, bus: EventBus) -> None:
        """
        Parameters
        ----------
        node:
            The :class:`~repro.transport.endpoint.ProtocolEndpoint` this runtime
            serves (a simulated or live node).
        store:
            The node's :class:`repro.store.filesystem.ReplicatedStore`.
        bus:
            The deployment's instrumentation bus, shared by every node so
            its reporting sees them all.
        """
        self.node = node
        self.store = store
        self.bus = bus
        #: incremental local-digest folds, shared by every object this node
        #: hosts
        self.digests = DigestCache()
        #: one backoff stream per node, shared by every object's resolution
        #: manager instead of spawning a stream per (node, object)
        self.backoff_rng = node.clock.random.stream(
            f"runtime.backoff.{node.node_id}")

    @property
    def node_id(self) -> str:
        return self.node.node_id
