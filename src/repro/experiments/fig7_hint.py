"""Figure 7: the adaptive interface with a fixed hint level.

Paper setup (Section 6.1): 40 Planet-Lab nodes, four of which are concurrent
writers of the same file and form the top layer after warm-up; each writer
updates the file every 5 seconds for 100 seconds (20 updates per writer); the
system's consistency level is sampled every 5 seconds.  Figure 7(a) uses a
hint of 95 %, Figure 7(b) a hint of 85 %.  The reported curves are the "view
from the user" (the worst writer's level) and the "system average" (the mean
over the four writers).

The paper's headline observations, which this harness reproduces:

* IDEA only resolves when the level drops below the hint, and brings it back
  to a satisfactory state within (much less than) one sampling interval;
* the lowest sampled level stays within a couple of percentage points of the
  hint (94 % for the 95 % hint, 84 % for the 85 % hint);
* lowering the hint lowers the maintained level accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.apps.whiteboard import WhiteboardApp, default_whiteboard_config
from repro.core.config import AdaptationMode
from repro.core.deployment import DeploymentBuilder, IdeaDeployment
from repro.experiments.report import format_table, percent
from repro.experiments.scaffold import run_sampled, schedule_warmup
from repro.farm import PointSpec


@dataclass
class HintExperimentResult:
    """Outputs of one Figure-7-style run."""

    hint_level: float
    sample_times: List[float]
    worst_levels: List[float]
    average_levels: List[float]
    resolutions: int
    active_resolutions: int
    lowest_worst_level: float
    lowest_average_level: float
    updates_issued: int
    writers: Tuple[str, ...]


def start_hint_run(*, hint_level: float, num_nodes: int, num_writers: int,
                   update_period: float, duration: float, seed: int,
                   warmup: float):
    """Deploy, warm up and schedule the updates (shared with Figure 8).

    Returns ``(deployment, app, writers, start, updates)``; nothing of the
    measured window has run yet, so a caller may schedule more before
    :func:`sample_hint_run`.
    """
    deployment = DeploymentBuilder(num_nodes=num_nodes, seed=seed).build()
    writers = deployment.node_ids[:num_writers]
    config = default_whiteboard_config(hint_level=hint_level,
                                       mode=AdaptationMode.HINT_BASED)
    app = WhiteboardApp(deployment, participants=list(deployment.node_ids),
                        config=config, start_background=False)
    deployment.start_overlay_services()

    # Warm-up: each writer posts once so the temperature overlay places all of
    # them in the top layer before the measured window starts, then one
    # background round reconciles the warm-up strokes so the measurement
    # starts from a consistent state (as after the paper's warm-up phase).
    schedule_warmup(deployment, writers,
                    lambda i, w: app.post(w, f"warm-up by {w}"))
    deployment.run(until=warmup - 5.0)
    deployment.run_background_round(app.object_id)
    deployment.run(until=warmup)

    start = deployment.sim.now
    updates = app.schedule_uniform_updates(writers, period=update_period,
                                           duration=duration, start=start)
    return deployment, app, writers, start, updates


def sample_hint_run(deployment: IdeaDeployment, app: WhiteboardApp,
                    writers: Sequence[str], start: float, *, duration: float,
                    sample_period: float
                    ) -> Tuple[List[float], List[float], List[float]]:
    """Run the measured window; ``(sample times, worst levels, averages)``."""
    def read() -> Tuple[float, float]:
        levels = deployment.ground_truth_levels(app.object_id, writers)
        return min(levels.values()), sum(levels.values()) / len(levels)

    return run_sampled(deployment, read, start=start, duration=duration,
                       sample_period=sample_period, lag=0.1)


def run_hint_experiment(*, hint_level: float = 0.95, num_nodes: int = 40,
                        num_writers: int = 4, update_period: float = 5.0,
                        duration: float = 100.0, sample_period: float = 5.0,
                        seed: int = 11, warmup: float = 10.0) -> HintExperimentResult:
    """Run the Figure 7 scenario and return the sampled level curves."""
    deployment, app, writers, start, updates = start_hint_run(
        hint_level=hint_level, num_nodes=num_nodes, num_writers=num_writers,
        update_period=update_period, duration=duration, seed=seed,
        warmup=warmup)
    sample_times, worst_levels, average_levels = sample_hint_run(
        deployment, app, writers, start, duration=duration,
        sample_period=sample_period)

    resolutions = [r for r in app.managed.resolutions if not r.aborted]
    active = [r for r in resolutions if r.kind == "active"]
    return HintExperimentResult(
        hint_level=hint_level,
        sample_times=sample_times,
        worst_levels=worst_levels,
        average_levels=average_levels,
        resolutions=len(resolutions),
        active_resolutions=len(active),
        lowest_worst_level=min(worst_levels) if worst_levels else 1.0,
        lowest_average_level=min(average_levels) if average_levels else 1.0,
        updates_issued=updates,
        writers=tuple(writers),
    )


def build_hint_grid(*, hint_levels: Sequence[float] = (0.95, 0.85),
                    seed: int = 11, **point_kwargs) -> List[PointSpec]:
    """One Figure 7 panel per hint level (the paper's two), as farm specs."""
    return [PointSpec.build(
        run_hint_experiment, labels=("fig7", f"hint{hint:g}"),
        hint_level=float(hint), seed=seed, **point_kwargs)
        for hint in hint_levels]


def level_table(result, title: str) -> str:
    """The sampled user-view / system-average series (Figures 7 and 8)."""
    return format_table(
        ["t (s)", "view from the user", "system average"],
        [[t, percent(w), percent(a)] for t, w, a in
         zip(result.sample_times, result.worst_levels, result.average_levels)],
        title=title)


def format_report(result: HintExperimentResult) -> str:
    """Render the Figure-7-style series plus the headline summary."""
    table = level_table(
        result, f"Figure 7 reproduction — hint level {percent(result.hint_level)}")
    summary = (
        f"\nlowest user-view level: {percent(result.lowest_worst_level)}"
        f"\nlowest system average:  {percent(result.lowest_average_level)}"
        f"\nactive resolutions:     {result.active_resolutions}"
        f"\nupdates issued:         {result.updates_issued}")
    return table + summary
