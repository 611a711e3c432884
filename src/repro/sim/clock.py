"""Per-node clocks with bounded skew.

The paper assumes that "the gap among time clocks of participating nodes in
the system is within seconds" (Section 4.4.1), achieved in practice by NTP or
a global clock-synchronisation algorithm.  Extended version vectors attach a
timestamp to every update and the *staleness* component of the consistency
triple is computed from those timestamps, so clock error feeds directly into
the consistency-level calculation.

:class:`DriftingClock` models a node clock as ``local = true + offset +
drift_rate * (true - sync_time)``, re-synchronised periodically (the NTP
substitute).  With the default parameters the skew stays well under one
second, matching the paper's assumption; tests also exercise larger skews to
check that staleness degrades gracefully.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.bounds import real


@dataclass
class ClockModel:
    """Parameters shared by all node clocks in a deployment.

    Attributes
    ----------
    max_offset:
        Maximum absolute offset (seconds) right after a synchronisation.
    max_drift_rate:
        Maximum absolute drift rate (seconds of error per second of real
        time) accumulated between synchronisations.
    sync_interval:
        Period of the NTP-substitute re-synchronisation.  ``None`` disables
        re-synchronisation (offset and drift persist forever).
    """

    max_offset: float = 0.05
    max_drift_rate: float = 1e-5
    sync_interval: Optional[float] = 60.0

    def __post_init__(self) -> None:
        # each is the half-width of a uniform draw, whose width must be finite
        for name in ("max_offset", "max_drift_rate"):
            real(name, getattr(self, name), ge=0, le=sys.float_info.max / 2)
        if self.sync_interval is not None:
            real("sync_interval", self.sync_interval, gt=0)

    def perfect(self) -> "ClockModel":
        """Return a model with zero error (useful for unit tests)."""
        return ClockModel(max_offset=0.0, max_drift_rate=0.0, sync_interval=None)


class DriftingClock:
    """A node-local clock reading derived from simulated (true) time."""

    def __init__(self, node_id: str, model: ClockModel, rng: np.random.Generator) -> None:
        self.node_id = node_id
        self.model = model
        self._rng = rng
        self._offset = 0.0
        self._drift_rate = 0.0
        self._last_sync = 0.0
        self._resample()

    def _resample(self) -> None:
        if self.model.max_offset > 0:
            self._offset = float(self._rng.uniform(-self.model.max_offset,
                                                   self.model.max_offset))
        else:
            self._offset = 0.0
        if self.model.max_drift_rate > 0:
            self._drift_rate = float(self._rng.uniform(-self.model.max_drift_rate,
                                                       self.model.max_drift_rate))
        else:
            self._drift_rate = 0.0

    def read(self, true_time: float) -> float:
        """Return this node's clock reading at simulated (true) time ``true_time``."""
        if true_time < 0:
            raise ValueError("true_time must be non-negative")
        self._maybe_sync(true_time)
        return true_time + self._offset + self._drift_rate * (true_time - self._last_sync)

    def error(self, true_time: float) -> float:
        """Absolute clock error at ``true_time`` (seconds)."""
        return abs(self.read(true_time) - true_time)

    def _maybe_sync(self, true_time: float) -> None:
        interval = self.model.sync_interval
        if interval is None:
            return
        # Apply every synchronisation point passed since the last read.
        while true_time - self._last_sync >= interval:
            self._last_sync += interval
            self._resample()
