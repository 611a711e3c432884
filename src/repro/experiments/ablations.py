"""Ablations: the design arguments the paper makes without a figure.

* ``abl_policies`` — Section 4.5.1 argues that the invalidate-both policy
  sacrifices progress for fairness (both conflicting strokes disappear)
  while the user-ID and priority policies keep the system moving.  The same
  conflicting white-board workload runs under each policy and the report
  counts the strokes that survive on the reconciled board.
* ``abl_suppression`` — Section 4.5.2's random back-off lets only one of
  several top-layer members that notice the same inconsistency run the
  resolution ("the back-off process is used to suppress redundant
  resolution process to save bandwidth").  All four writers start an active
  resolution at once, with and without the suppression window.
* ``abl_toplayer`` — the two-layer design rests on the claim (from the
  authors' earlier IDF work) that the small top layer catches > 95 % of the
  inconsistencies.  A growing fraction of the updates comes from cold
  bottom-layer nodes, and the report gives the share the top layer knows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.core.config import AdaptationMode, IdeaConfig, ResolutionStrategy
from repro.core.deployment import DeploymentBuilder
from repro.core.policies import make_policy
from repro.experiments.report import format_table
from repro.farm import PointSpec


@dataclass
class PolicyRun:
    """Strokes posted and surviving under one resolution policy."""

    strategy: str
    posted: int
    surviving: int

    @property
    def progress(self) -> float:
        return self.surviving / max(self.posted, 1)


def run_policy_point(*, strategy: str, num_nodes: int = 10,
                     seed: int = 43) -> PolicyRun:
    """Four writers post five rounds of conflicting strokes, each round
    reconciled by one background resolution under ``strategy``."""
    deployment = DeploymentBuilder(num_nodes=num_nodes, seed=seed).build()
    resolution_strategy = ResolutionStrategy[strategy]
    config = IdeaConfig(mode=AdaptationMode.ON_DEMAND, hint_level=0.0,
                        background_period=None,
                        resolution_strategy=resolution_strategy)
    policy = make_policy(resolution_strategy, priorities={"n00": 10, "n01": 5})
    deployment.register_object("obj", config, policy=policy, start_background=False)
    writers = deployment.node_ids[:4]

    posted = 0
    for k in range(5):
        for writer in writers:
            if deployment.middleware("obj", writer).write(f"{writer} stroke {k}",
                                                          metadata_delta=1.0):
                posted += 1
        deployment.run(until=deployment.sim.now + 3.0)
        deployment.middleware("obj", writers[0]).resolution.start_background_resolution()
        deployment.run(until=deployment.sim.now + 5.0)

    surviving = len(deployment.stores[writers[0]].read("obj"))
    return PolicyRun(strategy=strategy, posted=posted, surviving=surviving)


def build_policy_grid(*, strategies: Sequence[str] = (
        "INVALIDATE_BOTH", "USER_ID_BASED", "PRIORITY_BASED"),
        seed: int = 43, **point_kwargs) -> List[PointSpec]:
    """One run per resolution policy, by its ``ResolutionStrategy`` name."""
    return [PointSpec.build(run_policy_point, labels=("abl_policies", name),
                            strategy=name, seed=seed, **point_kwargs)
            for name in strategies]


def format_policy_report(runs: Sequence[PolicyRun]) -> str:
    return format_table(
        ["policy", "strokes posted", "strokes surviving", "progress"],
        [[r.strategy, r.posted, r.surviving, f"{r.progress:.0%}"] for r in runs],
        title="Ablation — resolution policy vs application progress")


@dataclass
class SuppressionRun:
    """Active rounds that completed or were suppressed, and their traffic."""

    suppression_jitter: float
    completed: int
    suppressed: int
    messages: int


def run_suppression_point(*, suppression_jitter: float, num_nodes: int = 12,
                          seed: int = 47) -> SuppressionRun:
    """Four diverged writers start an active resolution at the same time."""
    deployment = DeploymentBuilder(num_nodes=num_nodes, seed=seed).build()
    config = IdeaConfig(mode=AdaptationMode.ON_DEMAND, hint_level=0.0,
                        background_period=None)
    deployment.register_object("obj", config, start_background=False)
    writers = deployment.node_ids[:4]

    for writer in writers:
        deployment.middleware("obj", writer).write(f"{writer} update", metadata_delta=1.0)
    deployment.run(until=deployment.sim.now + 2.0)

    before = deployment.resolution_messages()
    for writer in writers:
        deployment.middleware("obj", writer).resolution.start_active_resolution(
            suppression_jitter=suppression_jitter)
    deployment.run(until=deployment.sim.now + 20.0)

    rounds = [r for w in writers
              for r in deployment.middleware("obj", w).resolution.history
              if r.kind == "active"]
    suppressed = sum(1 for r in rounds if r.aborted)
    return SuppressionRun(suppression_jitter=suppression_jitter,
                          completed=len(rounds) - suppressed,
                          suppressed=suppressed,
                          messages=deployment.resolution_messages() - before)


def build_suppression_grid(*, jitters: Sequence[float] = (0.0, 1.0),
                           seed: int = 47, **point_kwargs) -> List[PointSpec]:
    """One run per suppression window; 0 turns the back-off off."""
    return [PointSpec.build(run_suppression_point,
                            labels=("abl_suppression", f"jitter{jitter:g}"),
                            suppression_jitter=float(jitter), seed=seed,
                            **point_kwargs)
            for jitter in jitters]


def format_suppression_report(runs: Sequence[SuppressionRun]) -> str:
    return format_table(
        ["suppression", "completed rounds", "suppressed attempts",
         "resolution messages"],
        [["with" if r.suppression_jitter else "without", r.completed,
          r.suppressed, r.messages] for r in runs],
        title="Ablation — back-off suppression of concurrent initiators")


@dataclass
class CaptureRun:
    """The share of the issued updates the top layer knows at the end."""

    bottom_writer_fraction: float
    capture_rate: float


def run_capture_point(*, bottom_writer_fraction: float, num_nodes: int = 20,
                      rounds: int = 10, seed: int = 41) -> CaptureRun:
    """Each round, every core writer's update comes from a random cold node
    with probability ``bottom_writer_fraction``."""
    deployment = DeploymentBuilder(num_nodes=num_nodes, seed=seed).build()
    config = IdeaConfig(mode=AdaptationMode.ON_DEMAND, hint_level=0.0,
                        background_period=None)
    deployment.register_object("obj", config, start_background=False)
    core_writers = deployment.node_ids[:4]
    cold_writers = deployment.node_ids[4:]
    rng = deployment.sim.random.stream("ablation.toplayer")

    issued = 0
    known = set()
    for k in range(rounds):
        writers_this_round = [
            cold_writers[int(rng.integers(0, len(cold_writers)))]
            if rng.random() < bottom_writer_fraction else writer
            for writer in core_writers]
        for writer in writers_this_round:
            deployment.middleware("obj", writer).write(f"{writer}-{k}",
                                                       metadata_delta=1.0)
        issued += len(writers_this_round)
        deployment.run(until=deployment.sim.now + 5.0)

        # What does the top layer collectively know right now?
        known = set()
        for member in deployment.top_layer("obj"):
            known |= deployment.stores[member].replica("obj").known_update_keys()
    return CaptureRun(bottom_writer_fraction=bottom_writer_fraction,
                      capture_rate=len(known) / max(issued, 1))


def build_capture_grid(*, fractions: Sequence[float] = (0.0, 0.25, 0.5),
                       seed: int = 41, **point_kwargs) -> List[PointSpec]:
    """One run per share of the updates issued by bottom-layer nodes."""
    return [PointSpec.build(run_capture_point,
                            labels=("abl_toplayer", f"bottom{fraction:g}"),
                            bottom_writer_fraction=float(fraction), seed=seed,
                            **point_kwargs)
            for fraction in fractions]


def format_capture_report(runs: Sequence[CaptureRun]) -> str:
    return format_table(
        ["fraction of writes from bottom-layer nodes", "top-layer capture rate"],
        [[f"{r.bottom_writer_fraction:.0%}", f"{r.capture_rate:.1%}"]
         for r in runs],
        title="Ablation — top-layer inconsistency capture probability")
