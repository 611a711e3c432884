"""TACT-style bounded consistency (Yu & Vahdat, OSDI 2000).

TACT lets each replica accept writes locally but *bounds* the divergence: a
replica tracks how much numerical error, order error and staleness it may be
exposing and synchronises with its peers before any bound would be exceeded.
The bounds are fixed ahead of time — which is precisely the rigidity IDEA
argues against — but the protocol gives a useful middle point on the
Figure 2 trade-off: stronger guarantees than pure optimism, cheaper than
synchronous strong consistency.

The implementation keeps the reproduction-scale essentials:

* each replica counts the local writes its peers have not yet seen
  (order-error contribution) and their metadata deltas (numerical error) and
  tracks the time since it last synchronised (staleness);
* before any of the three would exceed its bound, the replica pushes its
  unseen updates to every peer (a *write-back sync*), resetting the budgets;
* an optional low-frequency periodic sync keeps staleness bounded even when
  the object is idle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Dict, Optional, Set, Tuple

from repro.baselines.base import BaselineProtocol
from repro.bounds import real, whole
from repro.sim.engine import Simulator
from repro.sim.network import Message, Network
from repro.sim.node import Node
from repro.versioning.extended_vector import UpdateRecord


@dataclass(frozen=True)
class TactBounds:
    """Per-replica divergence bounds (the `conit` bounds of TACT)."""

    numerical: float = 5.0
    order: int = 5
    staleness: float = 30.0

    def __post_init__(self) -> None:
        real("numerical", self.numerical, gt=0)
        whole("order", self.order, ge=1)
        real("staleness", self.staleness, gt=0)


class TactBoundedConsistency(BaselineProtocol):
    """Bounded-divergence replication with push-based write-back syncs."""

    protocol_name = "baseline.tact"

    def __init__(self, sim: Simulator, network: Network, nodes: Dict[str, Node],
                 object_id: str, *, bounds: Optional[TactBounds] = None) -> None:
        super().__init__(sim, network, nodes, object_id)
        self.bounds = bounds or TactBounds()
        #: per node: updates written locally but not yet pushed to peers
        self._unsynced: Dict[str, list] = {n: [] for n in nodes}
        self._unsynced_delta: Dict[str, float] = {n: 0.0 for n in nodes}
        self._last_sync: Dict[str, float] = {n: 0.0 for n in nodes}
        #: per node: pushed records waiting for a lower seq of their writer
        #: (TACT never resends, so a lost push leaves its writer's later
        #: records here for good)
        self.held: Dict[str, list] = {n: [] for n in nodes}
        self.syncs_run = 0
        self._started = False
        for node in nodes.values():
            node.register_handler(f"tact_push:{object_id}", self._handle_push)

    # -------------------------------------------------------------- workload
    def write(self, node_id: str, payload: Any = None, *,
              metadata_delta: float = 0.0) -> Optional[UpdateRecord]:
        replica = self.replicas[node_id]
        record = replica.local_write(node_id, self.nodes[node_id].local_time(),
                                     metadata_delta=metadata_delta, payload=payload,
                                     applied_at=self.sim.now)
        if record is None:
            return None
        self.metrics.updates_issued += 1
        self.metrics.write_latencies.append(0.0)
        self.track_propagation(record, self.sim.now)
        self._unsynced[node_id].append(record)
        self._unsynced_delta[node_id] += abs(metadata_delta)
        if self._bound_would_be_exceeded(node_id):
            self.sync_node(node_id)
        return record

    # ------------------------------------------------------------- bounding
    def _bound_would_be_exceeded(self, node_id: str) -> bool:
        if len(self._unsynced[node_id]) >= self.bounds.order:
            return True
        if self._unsynced_delta[node_id] >= self.bounds.numerical:
            return True
        return (self.sim.now - self._last_sync[node_id]) >= self.bounds.staleness

    def start(self) -> None:
        """Arm the periodic staleness-bound sync."""
        if self._started:
            return
        self._started = True
        self.sim.call_after(self.bounds.staleness, self._staleness_timer,
                            label="tact-staleness")

    def _staleness_timer(self) -> None:
        for node_id in self.nodes:
            if (self.sim.now - self._last_sync[node_id]) >= self.bounds.staleness \
                    and self._unsynced[node_id]:
                self.sync_node(node_id)
        self.sim.call_after(self.bounds.staleness, self._staleness_timer,
                            label="tact-staleness")

    # ---------------------------------------------------------------- syncing
    def sync_node(self, node_id: str) -> int:
        """Push the node's unseen updates to every peer; returns messages sent."""
        updates = self._unsynced[node_id]
        if not updates:
            self._last_sync[node_id] = self.sim.now
            return 0
        self.syncs_run += 1
        sent = 0
        for peer in self.nodes:
            if peer == node_id:
                continue
            self.network.send(node_id, peer, protocol=self.protocol_name,
                              msg_type=f"tact_push:{self.object_id}",
                              payload={"updates": list(updates)},
                              size_bytes=256 * len(updates))
            sent += 1
        self._unsynced[node_id] = []
        self._unsynced_delta[node_id] = 0.0
        self._last_sync[node_id] = self.sim.now
        return sent

    def _handle_push(self, message: Message) -> None:
        # jitter lets a later push overtake an earlier one: a record waits
        # in ``held`` until every lower seq of its writer is applied, and
        # one already applied is dropped
        receiver = message.dst
        replica = self.replicas[receiver]
        counts: Dict[str, int] = {}
        ready, held = [], []
        for record in sorted(self.held[receiver] + message.payload["updates"],
                             key=attrgetter("writer", "seq")):
            count = counts.get(record.writer, replica.vector.count(record.writer))
            if record.seq == count + 1:
                counts[record.writer] = record.seq
                ready.append(record)
            elif record.seq > count:
                held.append(record)
        self.held[receiver] = held
        replica.apply_updates(ready, applied_at=self.sim.now)
