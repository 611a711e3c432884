"""Figure 8: changing the hint level at runtime.

Paper setup (Section 6.1, second experiment): same deployment as Figure 7 but
the run lasts 200 seconds (40 updates per writer); the users' hint level
starts at 95 % and is reset to 90 % after 100 seconds.  The observation is
that the maintained (lowest) consistency level tracks the hint: ≈ 95 % in the
first half, ≈ 90 % in the second — demonstrating that the adaptive interface
takes effect while the system is running.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.apps.users import ScriptedUser, UserAction, UserActionKind
from repro.experiments.fig7_hint import (level_table, sample_hint_run,
                                         start_hint_run)
from repro.experiments.report import percent
from repro.farm import PointSpec


@dataclass
class HintChangeResult:
    """Outputs of the Figure-8 run."""

    initial_hint: float
    later_hint: float
    switch_time: float
    sample_times: List[float]
    worst_levels: List[float]
    average_levels: List[float]
    lowest_first_half: float
    lowest_second_half: float
    active_resolutions: int
    writers: Tuple[str, ...]


def run_hint_change_experiment(*, initial_hint: float = 0.95, later_hint: float = 0.90,
                               switch_time: float = 100.0, num_nodes: int = 40,
                               num_writers: int = 4, update_period: float = 5.0,
                               duration: float = 200.0, sample_period: float = 5.0,
                               seed: int = 13, warmup: float = 10.0) -> HintChangeResult:
    """Run the Figure 8 scenario (hint lowered mid-run)."""
    deployment, app, writers, start, _ = start_hint_run(
        hint_level=initial_hint, num_nodes=num_nodes, num_writers=num_writers,
        update_period=update_period, duration=duration, seed=seed,
        warmup=warmup)

    # Every writer's user resets the hint at the switch time (the paper's
    # "we initially set the users' hint levels to 95% and reset ... to 90%").
    for writer in writers:
        ScriptedUser(
            f"user-{writer}", app.middleware(writer),
            [UserAction(time=start + switch_time, kind=UserActionKind.SET_HINT,
                        argument=later_hint)]).schedule()

    sample_times, worst_levels, average_levels = sample_hint_run(
        deployment, app, writers, start, duration=duration,
        sample_period=sample_period)

    first_half = [w for t, w in zip(sample_times, worst_levels) if t <= switch_time]
    second_half = [w for t, w in zip(sample_times, worst_levels) if t > switch_time]
    active = [r for r in app.managed.resolutions
              if not r.aborted and r.kind == "active"]
    return HintChangeResult(
        initial_hint=initial_hint, later_hint=later_hint, switch_time=switch_time,
        sample_times=sample_times, worst_levels=worst_levels,
        average_levels=average_levels,
        lowest_first_half=min(first_half) if first_half else 1.0,
        lowest_second_half=min(second_half) if second_half else 1.0,
        active_resolutions=len(active), writers=tuple(writers))


def build_hint_change_grid(*, hint_schedules: Sequence[Tuple[float, float]] =
                           ((0.95, 0.90), (0.90, 0.80)),
                           seed: int = 13, **point_kwargs) -> List[PointSpec]:
    """One Figure 8 run per (initial, later) hint pair, as farm specs."""
    return [PointSpec.build(
        run_hint_change_experiment,
        labels=("fig8", f"{initial:g}->{later:g}"),
        initial_hint=float(initial), later_hint=float(later), seed=seed,
        **point_kwargs)
        for initial, later in hint_schedules]


def format_report(result: HintChangeResult) -> str:
    table = level_table(
        result, f"Figure 8 reproduction — hint {percent(result.initial_hint)} then "
                f"{percent(result.later_hint)} after {result.switch_time:.0f}s")
    summary = (
        f"\nlowest level while hint={percent(result.initial_hint)}: "
        f"{percent(result.lowest_first_half)}"
        f"\nlowest level while hint={percent(result.later_hint)}: "
        f"{percent(result.lowest_second_half)}"
        f"\nactive resolutions: {result.active_resolutions}")
    return table + summary
