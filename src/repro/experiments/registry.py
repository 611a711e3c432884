"""The one declaration of every runnable experiment, and the one way to run it.

``grid(**axes, **point_kwargs) -> [PointSpec]`` owns the sweep-axis defaults
and the per-point seed formula; keywords it does not name go to the *point*,
the farm-importable function its specs reference, which owns every per-point
default.  ``fold(specs, values)`` turns the ordered point values into the
result object (the list itself when no fold is given), ``report(result)``
renders the paper-style table, ``smoke`` shrinks the run to seconds for CI —
same code path, smaller grid.  :func:`run` is the only place the package
dispatches to the farm.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.experiments import (ablations, fig2_tradeoff, fig7_hint,
                               fig8_hint_change, fig9_scalability,
                               fig10_automatic, fig_churn_availability,
                               fig_workload_sensitivity, fig_world_matrix,
                               tab2_phases, tab3_overhead)
from repro.farm import PointSpec, run_specs

Fold = Callable[[Sequence[PointSpec], List[Any]], Any]


def _report_each(formatter: Callable[[Any], str]) -> Callable[[Any], str]:
    """Adapt a single-result formatter to a list of results."""
    return lambda results: "\n\n".join(formatter(r) for r in results)


@dataclass(frozen=True)
class ExperimentEntry:
    """One runnable experiment: its grid, how to fold, shrink and report it."""

    name: str
    description: str
    grid: Callable[..., List[PointSpec]]
    report: Callable[[Any], str]             # result -> human-readable text
    fold: Fold = lambda specs, values: values
    smoke: Mapping[str, Any] = dataclasses.field(default_factory=dict)

    def parameters(self) -> Dict[str, Any]:
        """Every override :func:`run` accepts, with its default
        (``inspect.Parameter.empty`` for none): the grid's keywords, then —
        when it forwards ``**point_kwargs`` — the point's, minus the ones
        the grid binds itself (its axes' per-point values)."""
        grid_params = inspect.signature(self.grid).parameters.values()
        accepted = {p.name: p.default for p in grid_params
                    if p.kind is p.KEYWORD_ONLY}
        if any(p.kind is p.VAR_KEYWORD for p in grid_params):
            spec = self.grid()[0]
            for name, p in inspect.signature(spec.resolve()).parameters.items():
                if name not in spec.kwargs:
                    accepted.setdefault(name, p.default)
        return accepted


class UnknownParameter(TypeError):
    """An override neither the experiment's grid nor its point accepts."""


_ENTRIES: List[ExperimentEntry] = [
    ExperimentEntry(
        name="fig2",
        description="trade-off: optimistic vs TACT vs IDEA vs strong",
        grid=fig2_tradeoff.build_tradeoff_grid,
        fold=fig2_tradeoff.fold_tradeoff,
        report=fig2_tradeoff.format_report,
        smoke={"num_nodes": 8, "duration": 20.0, "settle": 10.0}),
    ExperimentEntry(
        name="fig7",
        description="hint-based white board, hint 95 % / 85 %",
        grid=fig7_hint.build_hint_grid,
        report=_report_each(fig7_hint.format_report),
        smoke={"num_nodes": 12, "duration": 30.0}),
    ExperimentEntry(
        name="fig8",
        description="hint changed at runtime (95 % -> 90 % mid-run)",
        grid=fig8_hint_change.build_hint_change_grid,
        report=_report_each(fig8_hint_change.format_report),
        smoke={"num_nodes": 12, "duration": 60.0, "switch_time": 30.0}),
    ExperimentEntry(
        name="tab2",
        description="active-resolution phase breakdown vs top-layer size",
        grid=tab2_phases.build_phase_grid,
        report=_report_each(tab2_phases.format_report),
        smoke={"writer_counts": (2, 4), "num_nodes": 12}),
    ExperimentEntry(
        name="fig9",
        description="active-resolution scalability vs top-layer size",
        grid=fig9_scalability.build_scalability_grid,
        fold=fig9_scalability.fold_scalability,
        report=fig9_scalability.format_report,
        smoke={"max_top_layer": 4, "num_nodes": 12}),
    ExperimentEntry(
        name="multiobject",
        description="wall clock and events vs objects hosted per deployment",
        grid=fig9_scalability.build_multiobject_grid,
        fold=fig9_scalability.fold_multiobject,
        report=fig9_scalability.format_multiobject_report,
        smoke={"object_counts": (1, 4), "duration": 20.0}),
    ExperimentEntry(
        name="tab3",
        description="background-resolution message overhead (20 s vs 40 s)",
        grid=tab3_overhead.build_overhead_grid,
        fold=tab3_overhead.fold_overhead,
        report=tab3_overhead.format_report,
        smoke={"num_nodes": 12, "duration": 40.0}),
    ExperimentEntry(
        name="fig10",
        description="consistency level under automatic background resolution",
        grid=fig10_automatic.build_automatic_grid,
        fold=lambda specs, runs: fig10_automatic.AutomaticResult(runs),
        report=fig10_automatic.format_report,
        smoke={"num_nodes": 12, "duration": 40.0}),
    ExperimentEntry(
        name="abl_policies",
        description="ablation: resolution policy vs application progress",
        grid=ablations.build_policy_grid,
        report=ablations.format_policy_report,
        smoke={"num_nodes": 6}),
    ExperimentEntry(
        name="abl_suppression",
        description="ablation: back-off suppression of concurrent initiators",
        grid=ablations.build_suppression_grid,
        report=ablations.format_suppression_report,
        smoke={"num_nodes": 6}),
    ExperimentEntry(
        name="abl_toplayer",
        description="ablation: top-layer inconsistency capture probability",
        grid=ablations.build_capture_grid,
        report=ablations.format_capture_report,
        smoke={"num_nodes": 10, "rounds": 4}),
    ExperimentEntry(
        name="churn",
        description="detection & resolution under churn + loss (beyond paper)",
        grid=fig_churn_availability.build_churn_grid,
        fold=lambda specs, points:
            fig_churn_availability.ChurnSweepResult(points),
        report=fig_churn_availability.format_churn_report,
        smoke={"node_counts": (8,), "loss_probabilities": (0.0, 0.01),
               "duration": 30.0}),
    ExperimentEntry(
        name="world_matrix",
        description="catalog worlds end-to-end with fingerprint replay checks",
        grid=fig_world_matrix.build_world_matrix_grid,
        fold=fig_world_matrix.fold_world_matrix,
        report=fig_world_matrix.format_world_matrix_report,
        smoke={"worlds": ("wan-20", "edge-lossy"), "duration": 6.0}),
    ExperimentEntry(
        name="workload",
        description="detection accuracy vs Zipf skew x read mix (beyond paper)",
        grid=fig_workload_sensitivity.build_workload_grid,
        fold=lambda specs, points:
            fig_workload_sensitivity.WorkloadSweepResult(points),
        report=fig_workload_sensitivity.format_workload_report,
        smoke={"shapes": ("constant",), "zipf_skews": (0.0, 1.2),
               "read_fractions": (0.5,), "duration": 20.0}),
]

REGISTRY: Dict[str, ExperimentEntry] = {e.name: e for e in _ENTRIES}


def get(name: str) -> ExperimentEntry:
    try:
        return REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(REGISTRY))
        raise KeyError(f"unknown experiment {name!r} (known: {known})") from None


def run(name: str, *, jobs: int = 1, **overrides: Any) -> Any:
    """Build ``name``'s grid under ``overrides``, farm it, fold the values.

    ``jobs=1`` runs the points serially in-process — the determinism
    oracle; ``jobs>1`` fans them over worker processes with identical
    values.  An override no keyword of the grid or the point takes raises
    :class:`UnknownParameter` before anything runs.
    """
    entry = get(name)
    accepted = entry.parameters()
    unknown = sorted(set(overrides) - set(accepted))
    if unknown:
        raise UnknownParameter(
            f"experiment {name!r} takes no parameter {unknown[0]!r} "
            f"(accepted: {', '.join(accepted)})")
    specs = entry.grid(**overrides)
    return entry.fold(specs, run_specs(specs, jobs=jobs))
