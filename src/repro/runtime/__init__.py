"""repro.runtime — shared per-node runtime and instrumentation bus.

* :class:`NodeRuntime` — one per node; holds the node-scoped resources every
  object the node hosts shares (endpoint, store, digest cache, backoff
  stream, bus).
* :class:`DigestCache` — memoises version digests by replica revision so
  consistency evaluations stop paying O(update-log) per event.
* :class:`EventBus` and its event types — explicit publish/subscribe for
  deployment-level reporting, replacing private-callback chaining.
"""

from repro.runtime.digest_cache import DigestCache
from repro.runtime.events import (
    BackgroundRoundStarted,
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
    "BackgroundRoundStarted",
]
