"""Streaming traffic-generation subsystem.

The paper drives every experiment with one synthetic schedule ("uniform
distribution of the updating frequency", Section 6).  This package is the
reproduction's traffic layer beyond that: client populations issuing seeded
read/write mixes against multi-object deployments, with

* **popularity models** (:mod:`~repro.workloads.popularity`) choosing which
  object each operation targets — uniform, Zipf, rotating hotspot;
* **rate/phase schedules** (:mod:`~repro.workloads.phases`) shaping the
  offered load over time as piecewise rate functions — constant, ramp,
  diurnal and flash crowd;
* **client models** (:mod:`~repro.workloads.clients`) — open-loop Poisson
  arrival streams (non-homogeneous, via thinning) and closed-loop
  think-time sessions;
* a :class:`~repro.workloads.driver.TrafficDriver` binding client
  populations to an :class:`~repro.core.deployment.IdeaDeployment`.  Ops are
  scheduled *lazily* — each stream keeps exactly one pending simulator event
  (its next arrival), so a million-operation run holds O(active streams)
  schedule state, never a materialised event list;
* per-op metrics (:mod:`~repro.workloads.metrics`) collected over the
  runtime :class:`~repro.runtime.events.EventBus`.

The paper-exact generators (:class:`UniformWorkload`,
:class:`PoissonWorkload`) live in :mod:`repro.workloads.legacy`.
"""

from repro.workloads.clients import (
    ClientPopulation,
    ClientStream,
    ClosedLoopClient,
    OpenLoopClient,
    OpMix,
)
from repro.workloads.driver import TrafficDriver
from repro.workloads.legacy import PoissonWorkload, UniformWorkload, WorkloadEvent
from repro.workloads.metrics import TrafficMetrics
from repro.workloads.phases import (
    ConstantRate,
    DiurnalRate,
    FlashCrowdRate,
    RampRate,
    RateSchedule,
)
from repro.workloads.popularity import (
    PopularityModel,
    RotatingHotspot,
    UniformPopularity,
    ZipfPopularity,
)

__all__ = [
    "ClientPopulation",
    "ClientStream",
    "ClosedLoopClient",
    "OpenLoopClient",
    "OpMix",
    "TrafficDriver",
    "TrafficMetrics",
    "RateSchedule",
    "ConstantRate",
    "RampRate",
    "DiurnalRate",
    "FlashCrowdRate",
    "PopularityModel",
    "UniformPopularity",
    "ZipfPopularity",
    "RotatingHotspot",
    "UniformWorkload",
    "PoissonWorkload",
    "WorkloadEvent",
]
