"""repro.runtime — shared per-node runtime and instrumentation bus.

* :class:`NodeRuntime` — one per node; holds the node-scoped resources every
  object the node hosts shares (endpoint, store, digest cache, backoff
  stream, bus).
* :class:`DigestCache` — builds a changed replica's version digest by
  folding each writer's summary forward from the last build, so
  consistency evaluations stop paying O(records) per event (each detection
  service memoises the digest by replica revision in front of it).
* :class:`EventBus` and its event types — explicit publish/subscribe for
  deployment-level reporting, replacing private-callback chaining.
"""

from repro.runtime.digest_cache import DigestCache
from repro.runtime.events import (
    DetectionEvaluated,
    EventBus,
    ResolutionCompleted,
    WriteRecorded,
)
from repro.runtime.node_runtime import NodeRuntime

__all__ = [
    "NodeRuntime",
    "DigestCache",
    "EventBus",
    "WriteRecorded",
    "DetectionEvaluated",
    "ResolutionCompleted",
]
