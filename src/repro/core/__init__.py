"""IDEA core: detection-based adaptive consistency control.

This subpackage implements the paper's primary contribution on top of the
simulation, versioning, store and overlay substrates:

* :mod:`repro.core.config` — tunable knobs (metric maxima, weights,
  resolution policy, hint level, background frequency, adaptation mode).
* :mod:`repro.core.quantify` — Formula 1: the weighted consistency level.
* :mod:`repro.core.detection` — the ``detect(update)`` API, digest exchange
  among top-layer members and group consistency evaluation.
* :mod:`repro.core.policies` — the three resolution policies of §4.5.1.
* :mod:`repro.core.resolution` — background and two-phase active resolution.
* :mod:`repro.core.adaptive` — on-demand, hint-based and fully-automatic
  adaptation controllers (§4.6).
* :mod:`repro.core.middleware` — the per-node IDEA middleware instance.
* :mod:`repro.core.deployment` — helper wiring a whole simulated deployment.
* :mod:`repro.core.api` — the developer-facing API of Table 1.
"""

from repro.core.config import AdaptationMode, ConsistencyMetricSpec, IdeaConfig, MetricWeights
from repro.core.quantify import consistency_level, normalized_errors
from repro.core.policies import (
    InvalidateBothPolicy,
    PriorityBasedPolicy,
    ResolutionPolicy,
    UserIdBasedPolicy,
    make_policy,
)
from repro.core.detection import DetectionOutcome, DetectionService, VersionDigest
from repro.core.resolution import ResolutionManager, ResolutionResult
from repro.core.adaptive import (
    AutomaticController,
    HintBasedController,
    OnDemandController,
)
from repro.core.middleware import IdeaMiddleware
from repro.core.deployment import DeploymentBuilder, IdeaDeployment, ManagedObject
from repro.core.api import IdeaAPI

__all__ = [
    "AdaptationMode",
    "ConsistencyMetricSpec",
    "IdeaConfig",
    "MetricWeights",
    "consistency_level",
    "normalized_errors",
    "ResolutionPolicy",
    "InvalidateBothPolicy",
    "UserIdBasedPolicy",
    "PriorityBasedPolicy",
    "make_policy",
    "DetectionService",
    "DetectionOutcome",
    "VersionDigest",
    "ResolutionManager",
    "ResolutionResult",
    "OnDemandController",
    "HintBasedController",
    "AutomaticController",
    "IdeaMiddleware",
    "IdeaDeployment",
    "DeploymentBuilder",
    "ManagedObject",
    "IdeaAPI",
]
