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

Membership is decided by temperature alone.  RanSub views are not consulted:
only nodes that have written are ever ranked, and a writer the random sample
missed must stay in its top layer, so a view could never remove anyone.
The RanSub service still runs beside the overlay as the membership traffic
the overhead figures count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.overlay.temperature import TemperatureConfig, TemperatureTracker


@dataclass
class OverlayConfig:
    """Configuration shared by every per-object overlay."""

    temperature: TemperatureConfig = field(default_factory=TemperatureConfig)
    #: refresh the top-layer membership whenever it is queried (True) or only
    #: when an update is recorded (False).  Queries are cheap either way.
    refresh_on_query: bool = True


class TwoLayerOverlay:
    """Top/bottom-layer membership for every shared object in a deployment."""

    def __init__(self, node_ids: Sequence[str], *,
                 config: Optional[OverlayConfig] = None) -> None:
        if not node_ids:
            raise ValueError("overlay needs at least one node")
        self.node_ids = list(node_ids)
        self.config = config or OverlayConfig()
        #: crashed members: excluded from every layer until readmitted
        self._dead: set = set()
        self._trackers: Dict[str, TemperatureTracker] = {}
        self._top_cache: Dict[str, List[str]] = {}
        #: memo of the last selection per object, keyed by everything the
        #: selection depends on: (tracker version, query time)
        self._select_memo: Dict[str, tuple] = {}

    # ------------------------------------------------------------- tracking
    def tracker(self, object_id: str) -> TemperatureTracker:
        if object_id not in self._trackers:
            self._trackers[object_id] = TemperatureTracker(
                object_id, self.config.temperature)
        return self._trackers[object_id]

    def _select(self, object_id: str, tracker: TemperatureTracker,
                time: float) -> List[str]:
        """Memoised ``tracker.select_top``.

        Selection is deterministic in (tracker state, query time); within
        one simulated instant a write typically triggers several membership
        queries (record + announce + per-peer digest handling), and the memo
        collapses those to one ranking pass.
        """
        key = (tracker.version, time)
        memo = self._select_memo.get(object_id)
        if memo is not None and memo[0] == key:
            return memo[1]
        top = tracker.select_top(time)
        self._select_memo[object_id] = (key, top)
        return top

    def record_update(self, object_id: str, node_id: str, time: float) -> None:
        """Heat up ``node_id`` for ``object_id`` and refresh its top layer."""
        if node_id not in self.node_ids:
            raise KeyError(f"unknown node {node_id!r}")
        if node_id in self._dead:
            return  # a stale write event from a crashed member must not re-heat it
        tracker = self.tracker(object_id)
        tracker.record_update(node_id, time)
        self._top_cache[object_id] = self._select(object_id, tracker, time)

    # ----------------------------------------------------------- churn/faults
    def evict_node(self, node_id: str) -> None:
        """Remove a crashed member from every object's layers.

        Its temperature entries are forgotten (so digests stop being routed
        through a stale writer) and it stays excluded until
        :meth:`readmit_node`.  Idempotent.
        """
        if node_id not in self.node_ids:
            raise KeyError(f"unknown node {node_id!r}")
        if node_id in self._dead:
            return
        self._dead.add(node_id)
        for tracker in self._trackers.values():
            tracker.forget(node_id)
        # Top caches may be consulted without a query time; purge eagerly.
        for object_id, top in self._top_cache.items():
            if node_id in top:
                self._top_cache[object_id] = [n for n in top if n != node_id]
        self._select_memo.clear()

    def readmit_node(self, node_id: str) -> None:
        """Let a recovered member participate again (idempotent).

        It rejoins the bottom layer immediately and climbs back into top
        layers the usual way: by writing.
        """
        if node_id in self._dead:
            self._dead.discard(node_id)
            self._select_memo.clear()

    def dead_nodes(self) -> List[str]:
        return sorted(self._dead)

    # ------------------------------------------------------------ membership
    def top_layer(self, object_id: str, time: Optional[float] = None) -> List[str]:
        """Current top-layer members for the object (may be empty pre-warm-up)."""
        tracker = self._trackers.get(object_id)
        if tracker is None:
            return []
        if self.config.refresh_on_query and time is not None:
            self._top_cache[object_id] = self._select(object_id, tracker, time)
        return list(self._top_cache.get(object_id, []))

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
