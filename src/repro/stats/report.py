"""Plain-text rendering of tables and figure data.

Everything the harness produces is a list of rows; these helpers format
them the way the paper's tables/figures read, so benchmark output can be
compared against EXPERIMENTS.md side by side.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Monospace table with column alignment."""
    materialized = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append(
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        return "%.3f" % cell
    return str(cell)


def render_series(
    name: str, xs: Sequence[object], ys: Sequence[object],
    x_label: str = "x", y_label: str = "y",
) -> str:
    """A figure data series as two aligned columns."""
    rows = list(zip(xs, ys))
    return render_table((x_label, y_label), rows, title=name)


def render_histogram(
    name: str,
    values: Dict[int, int],
    width: int = 50,
) -> str:
    """ASCII bar rendering used by the attack benchmarks (Fig. 4/8)."""
    if not values:
        return name + ": (empty)"
    peak = max(values.values()) or 1
    lines = [name]
    for key in sorted(values):
        bar = "#" * max(1, int(width * values[key] / peak))
        lines.append("%6s | %s %d" % (key, bar, values[key]))
    return "\n".join(lines)
