"""Optimistic consistency: Bayou/Coda-style epidemic anti-entropy.

Writes are accepted locally with zero latency; replicas exchange missing
updates pairwise during periodic anti-entropy sessions with randomly chosen
partners.  Conflicts are detected only when an anti-entropy session happens
to bring two divergent histories together, so detection is *slow* but the
per-update overhead is low — the bottom-left corner of the paper's Figure 2
trade-off.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.baselines.base import BaselineProtocol
from repro.bounds import real
from repro.sim.engine import Simulator
from repro.sim.network import Message, Network
from repro.sim.node import Node
from repro.versioning.extended_vector import UpdateRecord


class OptimisticAntiEntropy(BaselineProtocol):
    """Periodic pairwise anti-entropy with random partner selection."""

    protocol_name = "baseline.optimistic"

    def __init__(self, sim: Simulator, network: Network, nodes: Dict[str, Node],
                 object_id: str, *, anti_entropy_period: float = 30.0) -> None:
        super().__init__(sim, network, nodes, object_id)
        self.anti_entropy_period = real("anti_entropy_period",
                                        anti_entropy_period, gt=0)
        self._rng = sim.random.stream("baseline.optimistic")
        self._started = False
        self.sessions_run = 0
        for node_id, node in nodes.items():
            node.register_handler(f"ae_offer:{object_id}", self._handle_offer)
            node.register_handler(f"ae_updates:{object_id}", self._handle_updates)

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
        self.metrics.write_latencies.append(0.0)   # accepted immediately
        self.track_propagation(record, self.sim.now)
        return record

    # --------------------------------------------------------- anti-entropy
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.sim.call_after(self.anti_entropy_period, self._session_timer,
                            label="anti-entropy")

    def _session_timer(self) -> None:
        self.run_session()
        self.sim.call_after(self.anti_entropy_period, self._session_timer,
                            label="anti-entropy")

    def run_session(self) -> None:
        """Every node offers its version vector to one random partner.

        The offer carries the replica's per-writer *counts* (the actual
        version vector — "only several bits" per entry) rather than a
        materialised update-key set: histories are seq-contiguous, so counts
        identify the missing set exactly and the receiver serves it from its
        vector's per-writer tails in O(missing) instead of O(history).
        """
        self.sessions_run += 1
        node_ids = list(self.nodes)
        for node_id in node_ids:
            others = [n for n in node_ids if n != node_id]
            if not others:
                continue
            partner = others[int(self._rng.integers(0, len(others)))]
            replica = self.replicas[node_id]
            self.network.send(node_id, partner, protocol=self.protocol_name,
                              msg_type=f"ae_offer:{self.object_id}",
                              payload={"from": node_id,
                                       "known": replica.vector.counts()},
                              size_bytes=128)

    def _handle_offer(self, message: Message) -> None:
        """Reply with every update the offering node is missing."""
        payload = message.payload
        receiver = message.dst
        replica = self.replicas[receiver]
        missing = replica.missing_from(payload["known"])
        if not missing:
            return
        self.network.send(receiver, payload["from"], protocol=self.protocol_name,
                          msg_type=f"ae_updates:{self.object_id}",
                          payload={"updates": missing},
                          size_bytes=256 * len(missing))

    def _handle_updates(self, message: Message) -> None:
        receiver = message.dst
        replica = self.replicas[receiver]
        replica.apply_updates(list(message.payload["updates"]), applied_at=self.sim.now)
