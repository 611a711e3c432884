"""repro — reproduction of IDEA (Lu, Lu & Jiang, 2007).

IDEA is an infrastructure for *detection-based adaptive consistency control*
in replicated services: instead of enforcing a fixed consistency level it
detects inconsistencies as they arise (quickly, inside a small "top layer" of
active writers) and resolves them on demand, guided by user hints and
application semantics.

The package layout mirrors the system inventory in ``DESIGN.md``:

* :mod:`repro.sim` — discrete-event wide-area substrate (Planet-Lab stand-in)
* :mod:`repro.versioning` — classic and extended version vectors
* :mod:`repro.store` — the replicated object store IDEA sits on top of
* :mod:`repro.overlay` — RanSub, temperature overlay, gossip
* :mod:`repro.runtime` — per-node runtime every hosted object shares,
  digest cache, instrumentation event bus
* :mod:`repro.core` — IDEA itself (detection, quantification, resolution,
  adaptation, developer API)
* :mod:`repro.baselines` — optimistic / strong / TACT-style comparators
* :mod:`repro.apps` — white board and airline-booking applications
* :mod:`repro.workloads` — streaming traffic generation: popularity models,
  rate/phase schedules, client populations, the lazy :class:`TrafficDriver`
* :mod:`repro.analysis` — the paper's analytical formulae (2)–(5)
* :mod:`repro.experiments` — one harness per paper table/figure

Quickstart (:class:`DeploymentBuilder` is the one way to build a
deployment)::

    from repro import AdaptationMode, DeploymentBuilder, IdeaAPI, IdeaConfig

    config = IdeaConfig(mode=AdaptationMode.HINT_BASED, hint_level=0.9)
    deployment = (DeploymentBuilder(num_nodes=8, seed=1)
                  .add_object("board", config, start_background=False)
                  .build())
    api = IdeaAPI(deployment, "board", node_id="n00")
    api.set_weight(0.2, 0.6, 0.2)

    deployment.middleware("board", "n00").write("hello", metadata_delta=1.0)
    deployment.run(until=10.0)
    print(api.current_level())
"""

__version__ = "1.0.0"

from repro.core.api import IdeaAPI
from repro.core.config import (
    AdaptationMode,
    ConsistencyMetricSpec,
    IdeaConfig,
    MetricWeights,
    ResolutionStrategy,
)
from repro.core.deployment import DeploymentBuilder, IdeaDeployment
from repro.runtime import EventBus, NodeRuntime

__all__ = [
    "__version__",
    "IdeaAPI",
    "IdeaConfig",
    "IdeaDeployment",
    "DeploymentBuilder",
    "NodeRuntime",
    "EventBus",
    "AdaptationMode",
    "ConsistencyMetricSpec",
    "MetricWeights",
    "ResolutionStrategy",
]
