"""Per-object two-layer overlay manager.

Turns update temperature into the per-object top/bottom-layer split the rest
of IDEA consumes:

* ``record_update(object_id, node_id)`` — called by the middleware whenever
  a node writes an object, heating that node up;
* ``top_layer(object_id)`` — the current temperature overlay for the object;
* ``bottom_layer(object_id)`` — everyone else.

Each object has its own independent overlay state ("different files may have
different top layers and different top layers do not interfere with one
another", Section 4.1), which the tests verify.

Membership is decided by temperature alone: only nodes that have written
are ever ranked, and a writer must never be filtered out, so a random
sample could never remove anyone.  The RanSub service runs beside the
overlay as control traffic only; it draws no sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.overlay.temperature import TemperatureConfig, TemperatureTracker


@dataclass
class OverlayConfig:
    """Configuration shared by every per-object overlay."""

    temperature: TemperatureConfig = field(default_factory=TemperatureConfig)


class TwoLayerOverlay:
    """Top/bottom-layer membership for every shared object in a deployment."""

    def __init__(self, node_ids: Sequence[str], *,
                 config: Optional[OverlayConfig] = None) -> None:
        if not node_ids:
            raise ValueError("overlay needs at least one node")
        self.node_ids = list(node_ids)
        self._members = frozenset(self.node_ids)
        self.config = config or OverlayConfig()
        #: crashed members: excluded from every layer until readmitted
        self._dead: set = set()
        self._trackers: Dict[str, TemperatureTracker] = {}
        #: object -> (tracker version, query time, members) of its last
        #: selection.  A selection is a pure function of the first two, so
        #: a query that matches them is answered from the third: within one
        #: simulated instant a write triggers several membership queries
        #: (record + announce + per-peer digest handling) and one ranking.
        self._selected: Dict[str, Tuple[int, Optional[float], List[str]]] = {}

    # ------------------------------------------------------------- tracking
    def tracker(self, object_id: str) -> TemperatureTracker:
        if object_id not in self._trackers:
            self._trackers[object_id] = TemperatureTracker(
                object_id, self.config.temperature)
        return self._trackers[object_id]

    def record_update(self, object_id: str, node_id: str, time: float) -> None:
        """Heat up ``node_id`` for ``object_id`` and refresh its top layer."""
        if node_id not in self._members:
            raise KeyError(f"unknown node {node_id!r}")
        if node_id in self._dead:
            return  # a stale write event from a crashed member must not re-heat it
        tracker = self.tracker(object_id)
        tracker.record_update(node_id, time)
        # the update moved the tracker's version: nothing cached can answer
        self._selected[object_id] = (tracker.version, time,
                                     tracker.select_top(time))

    # ----------------------------------------------------------- churn/faults
    def evict_node(self, node_id: str) -> None:
        """Remove a crashed member from every object's layers.

        Its temperature entries are forgotten (so digests stop being routed
        through a stale writer) and it stays excluded until
        :meth:`readmit_node`.  Idempotent.
        """
        if node_id not in self._members:
            raise KeyError(f"unknown node {node_id!r}")
        if node_id in self._dead:
            return
        self._dead.add(node_id)
        for tracker in self._trackers.values():
            tracker.forget(node_id)
        # The last selections may be consulted without a query time: purge
        # eagerly, under a key no later query matches.
        for object_id, (_, _, top) in self._selected.items():
            self._selected[object_id] = (
                -1, None, [n for n in top if n != node_id])

    def readmit_node(self, node_id: str) -> None:
        """Let a recovered member participate again (idempotent).

        It rejoins the bottom layer immediately and climbs back into top
        layers the usual way: by writing.
        """
        self._dead.discard(node_id)

    # ------------------------------------------------------------ membership
    def top_layer(self, object_id: str, time: Optional[float] = None) -> List[str]:
        """Top-layer members at ``time``, else the last selection (may be empty)."""
        tracker = self._trackers.get(object_id)
        if tracker is None:
            return []
        selected = self._selected.get(object_id)
        if time is not None and (selected is None
                                 or selected[0] != tracker.version
                                 or selected[1] != time):
            selected = self._selected[object_id] = (
                tracker.version, time, tracker.select_top(time))
        return list(selected[2]) if selected is not None else []

    def bottom_layer(self, object_id: str, time: Optional[float] = None) -> List[str]:
        """All *live* registered nodes not currently in the object's top layer."""
        top = set(self.top_layer(object_id, time))
        dead = self._dead
        return [n for n in self.node_ids if n not in top and n not in dead]

    def is_top(self, object_id: str, node_id: str, time: Optional[float] = None) -> bool:
        return node_id in self.top_layer(object_id, time)

    def objects(self) -> List[str]:
        return sorted(self._trackers)

    def temperature(self, object_id: str, node_id: str, time: float) -> float:
        return self.tracker(object_id).temperature(node_id, time)
