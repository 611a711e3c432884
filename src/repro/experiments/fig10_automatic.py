"""Figure 10: consistency level under automatic background resolution.

Paper setup (Section 6.3.1): the same automatic airline-booking deployment as
Table 3, showing the consistency level perceived by the top-layer (booking
server) nodes over the 100-second run for the two background-resolution
periods.  The expected shape, reproduced here: a saw-tooth whose level decays
between rounds and recovers at every round, with the 20-second schedule
maintaining a visibly higher average level than the 40-second schedule — the
frequency/consistency trade-off discussed in Section 6.3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments.report import format_table, percent
from repro.experiments.tab3_overhead import BookingRun, build_overhead_grid
from repro.farm import PointSpec


@dataclass
class AutomaticResult:
    """Level curves for each background-resolution period."""

    runs: List[BookingRun]

    def mean_average_level(self, run: BookingRun) -> float:
        if not run.average_levels:
            return 1.0
        return sum(run.average_levels) / len(run.average_levels)

    def as_rows(self) -> List[List[object]]:
        rows: List[List[object]] = []
        base = self.runs[0]
        for i, t in enumerate(base.sample_times):
            row: List[object] = [t]
            for run in self.runs:
                value = run.average_levels[i] if i < len(run.average_levels) else ""
                row.append(percent(value) if value != "" else "")
            rows.append(row)
        return rows


def build_automatic_grid(*, periods: Tuple[float, ...] = (20.0, 40.0),
                         seed: int = 29, **point_kwargs) -> List[PointSpec]:
    """Table 3's grid (its specs keep that label) under Figure 10's seed."""
    return build_overhead_grid(periods=periods, seed=seed, **point_kwargs)


def format_report(result: AutomaticResult) -> str:
    headers = ["t (s)"] + [f"avg level (every {r.background_period:.0f}s)"
                           for r in result.runs]
    table = format_table(headers, result.as_rows(),
                         title="Figure 10 reproduction — automatic booking system")
    lines = [table]
    for run in result.runs:
        lines.append(
            f"period {run.background_period:.0f}s: mean level "
            f"{percent(result.mean_average_level(run))}, "
            f"lowest {percent(min(run.worst_levels) if run.worst_levels else 1.0)}, "
            f"oversold {run.oversold} seats, resolution messages "
            f"{run.resolution_messages}")
    return "\n".join(lines)
