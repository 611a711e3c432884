"""Adaptive consistency control (paper Sections 2, 4.6 and 5).

Three controller classes implement the paper's application archetypes.  They
are deliberately free of any networking so they can be unit-tested in
isolation; the middleware consults them after every detection and the
experiment harness drives them with scripted user behaviour.

* :class:`OnDemandController` — the user explicitly demands resolution when
  unhappy.  IDEA *learns* from each complaint: the consistency level at which
  the user complained (plus Δ) becomes the new floor below which IDEA
  resolves proactively, "to avoid annoying the user again in the future".
  The user may also re-weight the three metrics or do both.
* :class:`HintBasedController` — the user supplies an initial hint level L1;
  IDEA resolves whenever the level drops below the hint.  A later complaint
  raises the hint to L1 + Δ (and further complaints keep raising it).
* :class:`AutomaticController` — no user in the loop: the controller adjusts
  the *frequency of background resolution* between the under-selling and
  over-selling bounds it learns from application feedback (Section 5.2).
  Formula 4's bandwidth-derived rate is :mod:`repro.analysis.formulas`'
  ``optimal_background_rate``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.bounds import real
from repro.core.config import IdeaConfig, MetricWeights


@dataclass
class ComplaintRecord:
    """One user complaint observed by a controller."""

    time: float
    level_at_complaint: float
    new_threshold: float
    reweighted: bool = False


class OnDemandController:
    """User-driven adaptation with complaint learning."""

    def __init__(self, config: IdeaConfig) -> None:
        self.config = config
        #: level below which IDEA resolves without waiting for the user;
        #: starts at the configured hint (0 disables proactive resolution)
        self.learned_threshold: float = config.hint_level
        self.weights: MetricWeights = config.weights
        self.complaints: List[ComplaintRecord] = []
        self._pending_demand = False

    # ------------------------------------------------------------ decisions
    def should_resolve(self, level: float) -> bool:
        """Resolve when the user demanded it or the learned floor is violated."""
        if self._pending_demand:
            return True
        return self.learned_threshold > 0 and level < self.learned_threshold

    def acts_on_levels(self) -> bool:
        """Whether :meth:`should_resolve` could say yes to any level right now.

        The middleware asks this before evaluating a level nobody else
        reads; it is re-read per digest, so a demand, a complaint or a new
        threshold takes effect on the next one.
        """
        return self._pending_demand or self.learned_threshold > 0

    def consume_demand(self) -> bool:
        """Return and clear the explicit-demand flag (one resolution per demand)."""
        pending, self._pending_demand = self._pending_demand, False
        return pending

    # --------------------------------------------------------------- inputs
    def set_threshold(self, threshold: float) -> None:
        """Set the learned threshold outright (the object's ``set_hint``)."""
        self.learned_threshold = real("hint_level", threshold, ge=0, le=1)

    def demand_resolution(self) -> None:
        """The user explicitly asks for the inconsistency to be resolved."""
        self._pending_demand = True

    def complain(self, time: float, level: float, *,
                 new_weights: Optional[MetricWeights] = None,
                 boost: bool = True) -> ComplaintRecord:
        """The user says the current consistency is unacceptable.

        ``new_weights`` re-weights the three metrics ("change the weight");
        ``boost`` raises the learned threshold above the complained-about
        level ("boost overall consistency").  Both may be combined.
        """
        reweighted = False
        if new_weights is not None:
            self.weights = new_weights
            reweighted = True
        if boost:
            self.learned_threshold = max(self.learned_threshold,
                                         min(1.0, level + self.config.hint_delta))
        self._pending_demand = True
        record = ComplaintRecord(time=time, level_at_complaint=level,
                                 new_threshold=self.learned_threshold,
                                 reweighted=reweighted)
        self.complaints.append(record)
        return record


class HintBasedController:
    """Hint-based adaptation: keep the level above a user-supplied hint."""

    def __init__(self, config: IdeaConfig, *, hint_level: Optional[float] = None) -> None:
        self.config = config
        self.hint_level: float = real(
            "hint_level", config.hint_level if hint_level is None
            else hint_level, ge=0, le=1)
        self.hint_history: List[Tuple[float, float]] = [(0.0, self.hint_level)]
        self.complaints: List[ComplaintRecord] = []

    def should_resolve(self, level: float) -> bool:
        """Trigger active resolution when the level drops below the hint."""
        return self.hint_level > 0 and level < self.hint_level

    def acts_on_levels(self) -> bool:
        """Whether any level could trigger a resolution: a positive hint."""
        return self.hint_level > 0

    def set_hint(self, time: float, hint_level: float) -> None:
        """Change the hint at runtime (the Figure 8 scenario)."""
        self.hint_level = real("hint_level", hint_level, ge=0, le=1)
        self.hint_history.append((time, hint_level))

    def complain(self, time: float, level: float) -> ComplaintRecord:
        """The pre-set hint was not high enough; raise it by Δ (L1 + Δ)."""
        new_hint = min(1.0, self.hint_level + self.config.hint_delta)
        self.set_hint(time, new_hint)
        record = ComplaintRecord(time=time, level_at_complaint=level,
                                 new_threshold=new_hint)
        self.complaints.append(record)
        return record


@dataclass
class FrequencyBounds:
    """Learned bounds on the background-resolution period (seconds).

    ``min_period`` prevents under-selling (resolving too often locks the
    system and blocks sales); ``max_period`` prevents over-selling (resolving
    too rarely lets replicas diverge and double-sell).
    """

    min_period: Optional[float] = None
    max_period: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("min_period", "max_period"):
            if getattr(self, name) is not None:
                real(name, getattr(self, name), gt=0)

    def clamp(self, period: float) -> float:
        if self.max_period is not None:
            period = min(period, self.max_period)
        if self.min_period is not None:
            period = max(period, self.min_period)
        return period


class AutomaticController:
    """Fully automatic adaptation of the background-resolution frequency."""

    #: absolute bounds (seconds) on the period, whatever the learned ones say
    MIN_PERIOD = 1.0
    MAX_PERIOD = 600.0

    def __init__(self, config: IdeaConfig) -> None:
        self.config = config
        period = config.background_period
        if period is None or period <= 0:
            raise ValueError("automatic mode needs a positive background period")
        self.period: float = period
        self.bounds = FrequencyBounds()
        self.adjustments: List[Tuple[float, float, str]] = []

    # ----------------------------------------------------- bound learning
    def report_overselling(self, time: float) -> float:
        """Consistency was too weak (tickets double-sold): resolve more often.

        The current period becomes the learned maximum ("keep the frequency
        above this one to avoid overselling"), and the controller speeds up.
        """
        self.bounds.max_period = (self.period if self.bounds.max_period is None
                                  else min(self.bounds.max_period, self.period))
        new_period = self._clamp(self.period / 2.0)
        self.adjustments.append((time, new_period, "overselling"))
        self.period = new_period
        return self.period

    def report_underselling(self, time: float) -> float:
        """Resolution locked the system too often (sales lost): slow down."""
        self.bounds.min_period = (self.period if self.bounds.min_period is None
                                  else max(self.bounds.min_period, self.period))
        new_period = self._clamp(self.period * 2.0)
        self.adjustments.append((time, new_period, "underselling"))
        self.period = new_period
        return self.period

    # ---------------------------------------------------------------- utils
    def should_resolve(self, level: float) -> bool:
        """Automatic mode never reacts to individual levels; timing decides."""
        return False

    def acts_on_levels(self) -> bool:
        """Never: see :meth:`should_resolve`."""
        return False

    def _clamp(self, period: float) -> float:
        # An inconsistent learned pair (min > max) yields the min bound; the
        # absolute bounds win over both.
        return max(self.MIN_PERIOD, min(self.MAX_PERIOD, self.bounds.clamp(period)))
