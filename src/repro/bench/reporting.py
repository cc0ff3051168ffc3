"""Plain-text tables shaped like the paper's figures.

Every benchmark prints, for each figure, a table with one row per x-axis
value and one column per method — the textual equivalent of the paper's
line plots.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.bench.harness import SweepResult


def format_series_table(
    title: str,
    results: Sequence[SweepResult],
    methods: Sequence[str] = ("IL", "RT", "IRT", "GAT"),
    value: str = "avg_seconds",
    unit: str = "s/query",
) -> str:
    """Render a sweep as an aligned text table."""
    header = [results[0].x_label if results else "x"] + [f"{m} ({unit})" for m in methods]
    rows: List[List[str]] = []
    for point in results:
        row = [str(point.x_value)]
        for m in methods:
            timing = point.timings.get(m)
            if timing is None:
                row.append("-")
            elif value == "avg_seconds":
                row.append(f"{timing.avg_seconds:.4f}")
            elif value == "candidates":
                per_query = timing.candidates / max(1, timing.n_queries)
                row.append(f"{per_query:.1f}")
            else:
                row.append(f"{timing.extra.get(value, float('nan')):.4f}")
        rows.append(row)
    return _render(title, header, rows)


def format_stat_table(title: str, rows: Sequence[Tuple[str, object]]) -> str:
    """Two-column statistic table (Table IV style)."""
    return _render(title, ["statistic", "value"], [[k, str(v)] for k, v in rows])


def _render(title: str, header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "-" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n" + "\n".join(lines) + "\n"
