"""ASCII rendering of experiment series in the paper's format.

Each figure is a table: rows = filter counts (the x-axis of Figures
16/17), columns = the plotted series.  ``render_series`` also prints a
crude inline bar so trends are visible in a terminal log.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

__all__ = ["render_series", "render_table1", "render_checks"]


def render_series(
    title: str,
    x_label: str,
    xs: Sequence[int],
    series: Mapping[str, Sequence[float]],
    unit: str = "s",
    bar_for: str | None = None,
) -> str:
    """Tabulate ``series[name][i]`` against ``xs[i]``."""
    names = list(series)
    width = max(9, *(len(n) + 2 for n in names))
    lines = [title, "=" * len(title)]
    header = f"{x_label:>8} |" + "".join(f"{n:>{width}}" for n in names)
    lines.append(header)
    lines.append("-" * len(header))
    all_values = [v for vs in series.values() for v in vs]
    peak = max(all_values) if all_values else 1.0
    for i, x in enumerate(xs):
        row = f"{x:>8} |"
        for name in names:
            value = series[name][i]
            row += f"{value:>{width - 1}.3f}{unit[:1]}"
        if bar_for is not None:
            value = series[bar_for][i]
            row += "  " + "#" * max(1, round(24 * value / peak))
        lines.append(row)
    return "\n".join(lines)


def render_table1(rows: Iterable[Mapping[str, str]]) -> str:
    """Regenerate Table 1 (tested module combinations)."""
    lines = [
        "Table 1 - Tested module combinations",
        "====================================",
        f"{'name':<12} {'partition':<14} {'concurrency':<12} {'distribution':<12}",
        "-" * 52,
    ]
    for row in rows:
        lines.append(
            f"{row['name']:<12} {row['partition']:<14} "
            f"{row['concurrency']:<12} {row['distribution']:<12}"
        )
    return "\n".join(lines)


def render_checks(title: str, checks: Sequence[tuple[str, bool]]) -> str:
    """Shape-assertion summary (what ``make reproduce`` asserts)."""
    lines = [title, "-" * len(title)]
    for label, ok in checks:
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {label}")
    return "\n".join(lines)
