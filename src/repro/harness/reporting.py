"""Plain-text rendering of experiment results.

The benchmark harness prints each figure/table as an aligned text table —
the same rows/series the paper plots — so a run's output can be compared to
the paper side by side (EXPERIMENTS.md records that comparison).
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_table(rows: List[Dict], columns: Sequence[str] = None,
                 title: str = "", floatfmt: str = "{:.3f}") -> str:
    """Render dict-rows as an aligned text table."""
    if not rows:
        return f"{title}\n(no rows)"
    if columns is None:
        # Union of keys across ALL rows, preserving first-seen order:
        # heterogeneous rows (a key absent from the first row, present in
        # later ones) must not lose columns.
        seen = {}
        for row in rows:
            for key in row:
                if not key.startswith("_") and key not in seen:
                    seen[key] = None
        columns = list(seen)
    if not columns:
        return f"{title}\n(no columns)"

    def cell(value) -> str:
        if isinstance(value, float):
            return floatfmt.format(value)
        if isinstance(value, dict):
            return "/".join(floatfmt.format(v) for v in value.values())
        return str(value)

    table = [[cell(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(str(col)), *(len(r[i]) for r in table))
        for i, col in enumerate(columns)
    ]
    lines = []
    if title:
        lines.append(title)
    header = "  ".join(str(col).ljust(widths[i]) for i, col in enumerate(columns))
    lines.append(header)
    lines.append("-" * len(header))
    for r in table:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(columns))))
    return "\n".join(lines)
