"""Node-local facade over all replicas a node hosts.

:class:`ReplicatedStore` is the "general distributed file system" interface
the paper assumes underneath IDEA (Section 2 and Figure 1): applications call
``read``/``write`` on it, IDEA's middleware consults the same replicas to
derive consistency levels.  Replication of updates between nodes is *not*
performed here — propagating updates is exactly the job of the consistency
machinery above (IDEA's resolution, or a baseline protocol), so the store
deliberately stays node-local.
"""

from __future__ import annotations

from math import inf
from typing import Any, Dict, List, Optional

from repro.store.replica import Replica
from repro.versioning.extended_vector import UpdateRecord


class ReplicatedStore:
    """All replicas hosted by one simulated node, keyed by object id."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self._replicas: Dict[str, Replica] = {}

    # ----------------------------------------------------------- management
    def create(self, object_id: str) -> Replica:
        """Create (or return the existing) replica for ``object_id``."""
        if object_id not in self._replicas:
            self._replicas[object_id] = Replica(self.node_id, object_id)
        return self._replicas[object_id]

    def replica(self, object_id: str) -> Replica:
        try:
            return self._replicas[object_id]
        except KeyError as exc:
            raise KeyError(
                f"node {self.node_id!r} holds no replica of {object_id!r}") from exc

    def has_replica(self, object_id: str) -> bool:
        return object_id in self._replicas

    def object_ids(self) -> List[str]:
        return sorted(self._replicas)

    # ------------------------------------------------------------ read/write
    def write(self, object_id: str, writer: str, timestamp: float, *,
              metadata_delta: float = 0.0, payload: Any = None,
              applied_at: Optional[float] = None) -> Optional[UpdateRecord]:
        """Apply a local write; returns None when writes are blocked."""
        if not -inf < metadata_delta < inf:  # NaN fails it too
            raise ValueError(
                f"metadata_delta must be finite, got {metadata_delta!r}")
        return self.replica(object_id).local_write(
            writer, timestamp, metadata_delta=metadata_delta, payload=payload,
            applied_at=applied_at)

    def read(self, object_id: str) -> List[Any]:
        """Return the replica's current content (live payloads in order)."""
        return self.replica(object_id).content()

    def metadata(self, object_id: str) -> float:
        return self.replica(object_id).metadata
