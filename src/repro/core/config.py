"""Configuration objects for IDEA.

All knobs exposed through the developer API of Table 1 live here:

* :class:`ConsistencyMetricSpec` — how the application casts itself onto the
  ``<numerical error, order error, staleness>`` triple (the per-metric maxima
  used by Formula 1; ``set_consistency_metric``),
* :class:`MetricWeights` — the triple's weights (``set_weight``),
* :class:`IdeaConfig` — everything else: resolution policy
  (``set_resolution``), hint level (``set_hint``), background-resolution
  frequency (``set_background_freq``), adaptation mode and the hint boost Δ
  applied when a user complains.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.bounds import real, whole


class AdaptationMode(enum.Enum):
    """The three application archetypes of Section 4.6."""

    ON_DEMAND = "on_demand"
    HINT_BASED = "hint_based"
    AUTOMATIC = "automatic"


class ResolutionStrategy(enum.IntEnum):
    """Numeric policy selector, as passed to ``set_resolution`` (§4.7)."""

    INVALIDATE_BOTH = 1
    USER_ID_BASED = 2
    PRIORITY_BASED = 3


@dataclass(frozen=True)
class ConsistencyMetricSpec:
    """Per-metric maxima: how large each error can plausibly get.

    "IDEA predefines a maximum value for each member of the triple. For
    example, if in practice the order error is very unlikely to be larger
    than 10, then the maximum value for order error can be set as 10."
    (Section 4.4.1.)  Errors above the maximum saturate at consistency 0 for
    that component.
    """

    max_numerical: float = 60.0
    max_order: float = 60.0
    max_staleness: float = 60.0

    def __post_init__(self) -> None:
        for name in ("max_numerical", "max_order", "max_staleness"):
            real(name, getattr(self, name), gt=0)


@dataclass(frozen=True)
class MetricWeights:
    """Weights of the three error components.

    Weights need not sum to one on input (``set_weight(0.4, 0, 0.6)`` is
    legal); :meth:`normalized` rescales them.  A zero weight removes the
    metric from consideration, as the paper suggests for applications where
    e.g. order error is meaningless.
    """

    numerical: float = 1.0 / 3.0
    order: float = 1.0 / 3.0
    staleness: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        for name in ("numerical", "order", "staleness"):
            real(name, getattr(self, name), ge=0)
        if self.numerical + self.order + self.staleness <= 0:
            raise ValueError("at least one weight must be positive")

    def normalized(self) -> "MetricWeights":
        total = self.numerical + self.order + self.staleness
        return MetricWeights(self.numerical / total, self.order / total,
                             self.staleness / total)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.numerical, self.order, self.staleness)

    @classmethod
    def equal(cls) -> "MetricWeights":
        return cls()


@dataclass
class IdeaConfig:
    """Complete configuration of one IDEA-managed object/application."""

    metric: ConsistencyMetricSpec = field(default_factory=ConsistencyMetricSpec)
    weights: MetricWeights = field(default_factory=MetricWeights)
    resolution_strategy: ResolutionStrategy = ResolutionStrategy.USER_ID_BASED
    mode: AdaptationMode = AdaptationMode.HINT_BASED
    #: initial hint level L1 in [0, 1]; 0 disables hint-based behaviour,
    #: 1 means "no inconsistency tolerated" (Section 4.7)
    hint_level: float = 0.0
    #: Δ added to the hint when a user complains (Section 2: "IDEA will
    #: increase the consistency level by Δ; L1 + Δ becomes the new level")
    hint_delta: float = 0.02
    #: background-resolution period in seconds (``set_background_freq``);
    #: None disables background resolution
    background_period: Optional[float] = 20.0
    #: how many recent :class:`~repro.core.detection.DetectionOutcome`
    #: records each middleware retains (a bounded deque): long traffic runs
    #: evaluate millions of detections and must not keep them all
    outcome_history: int = 65536

    def __post_init__(self) -> None:
        real("hint_level", self.hint_level, ge=0, le=1)
        real("hint_delta", self.hint_delta, ge=0)
        if self.background_period is not None:
            real("background_period", self.background_period, gt=0)
        whole("outcome_history", self.outcome_history, ge=1, le=sys.maxsize)

    def with_weights(self, weights: MetricWeights) -> "IdeaConfig":
        return replace(self, weights=weights)
