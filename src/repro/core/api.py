"""Developer-facing API (paper Section 4.7, Table 1).

The paper lists six functions application developers use to configure IDEA.
:class:`IdeaAPI` exposes them verbatim over a deployment-managed object so
example applications read like the paper's API table:

====================================  =======================================
``set_consistency_metric(a, b, c)``   cast the application onto the triple
                                      (the per-metric maxima)
``set_weight(a, b, c)``               weights of the three metrics
``set_resolution(r)``                 resolution strategy (1, 2 or 3)
``set_hint(h)``                       initial hint level in [0, 1]
``demand_active_resolution()``        explicitly resolve now
``set_background_freq(f)``            background-resolution frequency (Hz)
====================================  =======================================
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.bounds import real, whole
from repro.core.adaptive import AutomaticController, HintBasedController, OnDemandController
from repro.core.config import ConsistencyMetricSpec, MetricWeights, ResolutionStrategy
from repro.core.deployment import IdeaDeployment
from repro.core.policies import make_policy


class IdeaAPI:
    """Table 1's configuration calls, bound to one object in a deployment.

    ``node_id`` selects the node on whose behalf user-facing calls
    (``demand_active_resolution``, ``set_hint``) act; configuration calls
    (metric, weights, resolution strategy, background frequency) apply to
    every participant, as a system administrator would configure the
    application deployment-wide.
    """

    def __init__(self, deployment: IdeaDeployment, object_id: str, *,
                 node_id: Optional[str] = None) -> None:
        if object_id not in deployment.objects:
            raise KeyError(f"object {object_id!r} is not registered with IDEA")
        self.deployment = deployment
        self.object_id = object_id
        managed = deployment.objects[object_id]
        self.node_id = node_id if node_id is not None else sorted(managed.middlewares)[0]
        if self.node_id not in managed.middlewares:
            raise KeyError(f"node {self.node_id!r} does not participate in {object_id!r}")

    # ------------------------------------------------------------ helpers
    @property
    def _managed(self):
        return self.deployment.objects[self.object_id]

    @property
    def _local(self):
        return self._managed.middlewares[self.node_id]

    # ----------------------------------------------------------- Table 1 API
    def set_consistency_metric(self, max_numerical: float, max_order: float,
                               max_staleness: float) -> ConsistencyMetricSpec:
        """Cast the application onto IDEA's consistency metric."""
        spec = ConsistencyMetricSpec(max_numerical=max_numerical, max_order=max_order,
                                     max_staleness=max_staleness)
        for middleware in self._managed.middlewares.values():
            middleware.detection.set_metric(spec)
            middleware.config.metric = spec
        self._managed.config.metric = spec
        return spec

    def set_weight(self, numerical: float, order: float, staleness: float) -> MetricWeights:
        """Set the weights used by Formula 1 (they are normalised internally)."""
        weights = MetricWeights(numerical=numerical, order=order, staleness=staleness)
        for middleware in self._managed.middlewares.values():
            middleware.set_weights(weights)
        self._managed.config.weights = weights
        return weights

    def set_resolution(self, strategy: int, *,
                       priorities: Optional[Mapping[str, int]] = None) -> None:
        """Choose the resolution policy (1=invalidate-both, 2=user-id, 3=priority)."""
        strategy = ResolutionStrategy(whole("strategy", strategy,
                                            ge=min(ResolutionStrategy),
                                            le=max(ResolutionStrategy)))
        policy = make_policy(strategy, priorities=priorities)
        for middleware in self._managed.middlewares.values():
            middleware.policy = policy
            middleware.resolution.policy = policy
        self._managed.config.resolution_strategy = strategy

    def set_hint(self, hint_level: float) -> None:
        """Set the hint level for hint-based applications (0 disables, 1 is strict)."""
        real("hint_level", hint_level, ge=0, le=1)
        for middleware in self._managed.middlewares.values():
            controller = middleware.controller
            if isinstance(controller, (HintBasedController, OnDemandController)):
                middleware.set_hint(hint_level)
        self._managed.config.hint_level = hint_level

    def demand_active_resolution(self) -> bool:
        """Explicitly ask IDEA to resolve the current inconsistency now."""
        return self._local.demand_active_resolution()

    def set_background_freq(self, frequency_hz: float) -> float:
        """Set the background-resolution frequency; returns the period used.

        The argument follows the paper's naming (a frequency); internally the
        scheduler works with the period ``1 / f`` seconds.  An object with no
        background schedule (registered without one, or cancelled) starts
        one.
        """
        period = real("1 / frequency_hz",
                      1.0 / real("frequency_hz", frequency_hz, gt=0), gt=0)
        managed = self._managed
        managed.config.background_period = period
        for middleware in managed.middlewares.values():
            middleware.config.background_period = period
            if isinstance(middleware.controller, AutomaticController):
                middleware.controller.period = period
        if managed.background_timer is None:
            self.deployment._schedule_background(managed)
        return period

    # ------------------------------------------------------ convenience reads
    def current_level(self) -> float:
        """Consistency level currently perceived at this API's node."""
        return self._local.current_level()

    def top_layer(self):
        """Current top-layer membership for the object."""
        return self.deployment.top_layer(self.object_id)
