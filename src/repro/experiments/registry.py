"""Registry of runnable experiments for the ``repro.experiments`` CLI.

Every entry names one paper artefact (or beyond-paper study), the sweep
function that produces it, the grid builder behind that sweep, and a
report formatter.  The ``smoke`` kwargs shrink the run to seconds for CI
farm smoke tests — same code path, smaller grid.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.experiments import (conformance, fig2_tradeoff, fig7_hint,
                               fig8_hint_change, fig9_scalability,
                               fig10_automatic, fig_churn_availability,
                               fig_workload_sensitivity, fig_world_matrix,
                               tab2_phases, tab3_overhead)


@dataclass(frozen=True)
class ExperimentEntry:
    """One runnable experiment: how to run it, shrink it, and report it."""

    name: str
    description: str
    run: Callable[..., Any]                  # accepts **kwargs incl. jobs=
    report: Callable[[Any], str]             # result -> human-readable text
    grid: Optional[Callable[..., list]] = None  # the PointSpec builder
    smoke: Mapping[str, Any] = dataclasses.field(default_factory=dict)


def _report_each(formatter: Callable[[Any], str]) -> Callable[[Any], str]:
    """Adapt a single-result formatter to a list of results."""
    def report(results: Any) -> str:
        return "\n\n".join(formatter(r) for r in results)
    return report


_ENTRIES: List[ExperimentEntry] = [
    ExperimentEntry(
        name="fig2",
        description="trade-off: optimistic vs TACT vs IDEA vs strong",
        run=fig2_tradeoff.run_tradeoff_experiment,
        report=fig2_tradeoff.format_report,
        grid=fig2_tradeoff.build_tradeoff_grid,
        smoke={"num_nodes": 8, "duration": 20.0, "settle": 10.0}),
    ExperimentEntry(
        name="fig7",
        description="hint-based white board, hint 95 % / 85 %",
        run=fig7_hint.run_hint_sweep,
        report=_report_each(fig7_hint.format_report),
        grid=fig7_hint.build_hint_grid,
        smoke={"num_nodes": 12, "duration": 30.0}),
    ExperimentEntry(
        name="fig8",
        description="hint changed at runtime (95 % -> 90 % mid-run)",
        run=fig8_hint_change.run_hint_change_sweep,
        report=_report_each(fig8_hint_change.format_report),
        grid=fig8_hint_change.build_hint_change_grid,
        smoke={"num_nodes": 12, "duration": 60.0, "switch_time": 30.0}),
    ExperimentEntry(
        name="tab2",
        description="active-resolution phase breakdown vs top-layer size",
        run=tab2_phases.run_phase_sweep,
        report=_report_each(tab2_phases.format_report),
        grid=tab2_phases.build_phase_grid,
        smoke={"writer_counts": (2, 4), "num_nodes": 12}),
    ExperimentEntry(
        name="fig9",
        description="active-resolution scalability vs top-layer size",
        run=fig9_scalability.run_scalability_experiment,
        report=fig9_scalability.format_report,
        grid=fig9_scalability.build_scalability_grid,
        smoke={"max_top_layer": 4, "num_nodes": 12}),
    ExperimentEntry(
        name="multiobject",
        description="wall clock and events vs objects hosted per deployment",
        run=fig9_scalability.run_multiobject_experiment,
        report=fig9_scalability.format_multiobject_report,
        grid=fig9_scalability.build_multiobject_grid,
        smoke={"object_counts": (1, 4), "duration": 20.0}),
    ExperimentEntry(
        name="tab3",
        description="background-resolution message overhead (20 s vs 40 s)",
        run=tab3_overhead.run_overhead_experiment,
        report=tab3_overhead.format_report,
        grid=tab3_overhead.build_overhead_grid,
        smoke={"num_nodes": 12, "duration": 40.0}),
    ExperimentEntry(
        name="fig10",
        description="consistency level under automatic background resolution",
        run=fig10_automatic.run_automatic_experiment,
        report=fig10_automatic.format_report,
        grid=tab3_overhead.build_overhead_grid,
        smoke={"num_nodes": 12, "duration": 40.0}),
    ExperimentEntry(
        name="churn",
        description="detection & resolution under churn + loss (beyond paper)",
        run=fig_churn_availability.run_churn_experiment,
        report=fig_churn_availability.format_churn_report,
        grid=fig_churn_availability.build_churn_grid,
        smoke={"node_counts": (8,), "loss_probabilities": (0.0, 0.01),
               "duration": 30.0}),
    ExperimentEntry(
        name="world_matrix",
        description="catalog worlds end-to-end with fingerprint replay checks",
        run=fig_world_matrix.run_world_matrix,
        report=fig_world_matrix.format_world_matrix_report,
        grid=fig_world_matrix.build_world_matrix_grid,
        smoke={"worlds": ("wan-20", "edge-lossy"), "duration": 6.0}),
    ExperimentEntry(
        name="conformance",
        description="transport conformance: a backend vs the simulator "
                    "oracle (fault_plan= for chaos runs)",
        run=conformance.run_conformance_experiment,
        report=conformance.format_conformance_report,
        smoke={"num_nodes": 3, "num_objects": 2, "time_scale": 0.6}),
    ExperimentEntry(
        name="workload",
        description="detection accuracy vs Zipf skew x read mix (beyond paper)",
        run=fig_workload_sensitivity.run_workload_sensitivity,
        report=fig_workload_sensitivity.format_workload_report,
        grid=fig_workload_sensitivity.build_workload_grid,
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
