"""Update-temperature tracking and top-layer selection.

The paper's top layer for a file — the "temperature overlay" — contains the
nodes that "update this file sufficiently frequently and/or recently"
(Section 4.1).  We model temperature as an exponentially decayed count of
updates: every write adds 1, and the score decays with a configurable
half-life, so sustained or recent writers stay hot while nodes that stop
writing cool down and drop back into the bottom layer.

The selection rule mirrors the paper's evaluation setup: after a warm-up
period the four concurrent writers "form a top layer of four nodes that
includes all of them"; i.e. all nodes whose temperature exceeds a threshold
are included, subject to a maximum top-layer size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.bounds import real, whole


@dataclass
class TemperatureConfig:
    """Parameters of the temperature model.

    Attributes
    ----------
    half_life:
        Time (seconds) for a node's temperature to halve with no new writes.
    hot_threshold:
        Minimum temperature for a node to qualify for the top layer.
    max_top_size:
        Hard cap on top-layer size; the hottest nodes win ties.
    min_top_size:
        The top layer never shrinks below this as long as any node has ever
        written (prevents an empty top layer right after warm-up).
    """

    half_life: float = 60.0
    hot_threshold: float = 0.5
    max_top_size: int = 10
    min_top_size: int = 1

    def __post_init__(self) -> None:
        real("half_life", self.half_life, gt=0)
        real("hot_threshold", self.hot_threshold)
        whole("max_top_size", self.max_top_size, ge=1)
        whole("min_top_size", self.min_top_size, ge=0, le=self.max_top_size)


class TemperatureTracker:
    """Tracks per-node update temperature for a single shared object."""

    def __init__(self, object_id: str, config: Optional[TemperatureConfig] = None) -> None:
        self.object_id = object_id
        self.config = config or TemperatureConfig()
        self._decay_rate = math.log(2.0) / self.config.half_life
        self._scores: Dict[str, float] = {}
        self._last_update: Dict[str, float] = {}
        #: bumped on every recorded update; selection results are pure
        #: functions of (version, query time), so callers can memoise on it
        self.version = 0

    # ------------------------------------------------------------- updates
    def record_update(self, node_id: str, time: float, weight: float = 1.0) -> None:
        """Record that ``node_id`` wrote the object at ``time``."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        current = self.temperature(node_id, time)
        self._scores[node_id] = current + weight
        self._last_update[node_id] = time
        self.version += 1

    def forget(self, node_id: str) -> None:
        """Drop a node's temperature entirely (e.g. it crashed).

        A forgotten node leaves the selection pool immediately; if it
        recovers and writes again it re-heats from zero like any newcomer.
        """
        if node_id in self._scores:
            self._scores.pop(node_id, None)
            self._last_update.pop(node_id, None)
            self.version += 1

    def temperature(self, node_id: str, time: float) -> float:
        """Current (decayed) temperature of a node."""
        score = self._scores.get(node_id, 0.0)
        if score == 0.0:
            return 0.0
        last = self._last_update.get(node_id, time)
        dt = max(0.0, time - last)
        return score * math.exp(-self._decay_rate * dt)

    # ------------------------------------------------------------ selection
    def select_top(self, time: float) -> List[str]:
        """Choose the top layer at ``time``: the hottest writers.

        Every node that has written is ranked — a writer must never be
        filtered out of its object's top layer, otherwise its conflicts
        would go undetected — so no outside candidate set (a RanSub view,
        say) can narrow the choice, and none is taken.

        One pass computes every temperature with :meth:`temperature`'s own
        expression — the same floats, so ties and near-ties rank as they
        always did (the order is the digest fan-out order) — and one sort
        of ``(-temperature, node)`` tuples ranks hottest first, names
        breaking ties.
        """
        cfg = self.config
        rate = self._decay_rate
        last_update = self._last_update
        exp = math.exp
        ranked = []
        for node, score in self._scores.items():
            if score != 0.0:
                dt = time - last_update.get(node, time)
                score *= exp(-rate * (dt if dt > 0.0 else 0.0))
            ranked.append((-score, node))
        ranked.sort()

        # The hot nodes are a prefix; at most ``max_top_size`` of them are
        # returned, and short of ``min_top_size`` the hottest stand in.
        size = 0
        limit = cfg.max_top_size
        threshold = cfg.hot_threshold
        for neg_temperature, _ in ranked:
            if size == limit or -neg_temperature < threshold:
                break
            size += 1
        if size < cfg.min_top_size:
            size = cfg.min_top_size
        return [node for _, node in ranked[:size]]

    def is_hot(self, node_id: str, time: float) -> bool:
        return self.temperature(node_id, time) >= self.config.hot_threshold
