"""Plain-text reporting helpers shared by the experiment harnesses.

Every experiment's report prints paper-style rows with these utilities, so
the regenerated artefacts (DESIGN.md §4's experiments) share one format.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], *,
                 title: str = "") -> str:
    """Render a fixed-width text table."""
    rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.4g}"
    return str(cell)


def percent(value: float) -> str:
    """Format a [0, 1] level the way the paper reports it (e.g. '94.2%')."""
    return f"{value * 100:.1f}%"
