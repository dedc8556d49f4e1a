"""ASCII renderings of the paper's figures.

The paper's Fig. 4 and Fig. 6 are grouped bar charts and Fig. 5 is a set
of line plots; these renderers draw the same shapes in a terminal so the
CLI output *looks like* the figures, not just tables of numbers.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple


def bar_chart(
    items: Sequence[Tuple[str, float]],
    title: str = "",
    width: int = 48,
    reference: float = 1.0,
) -> str:
    """Horizontal log-scale bars with a reference line (the 'host = 1.0'
    axis).  Log scale matches the paper's figures, which span 0.1x-3.5x.
    """
    if not items:
        return title
    values = [value for _, value in items]
    finite = [v for v in values if v > 0 and math.isfinite(v)]
    if not finite:
        return title
    low = min(min(finite), reference / 1.05)
    high = max(max(finite), reference * 1.05)
    span = math.log(high) - math.log(low)

    def position(value: float) -> int:
        if value <= 0:
            return 0
        return int(round((math.log(value) - math.log(low)) / span * (width - 1)))

    reference_column = position(reference)
    label_width = max(len(label) for label, _ in items)
    lines = [title] if title else []
    for label, value in items:
        column = position(value) if value > 0 and math.isfinite(value) else 0
        cells = [" "] * width
        start, end = sorted((reference_column, column))
        for i in range(start, end + 1):
            cells[i] = "#"
        cells[reference_column] = "|"
        bar = "".join(cells)
        lines.append(f"{label:<{label_width}} {bar} {value:6.2f}")
    pointer = " " * (label_width + 1 + reference_column) + "^"
    lines.append(pointer + f" host = {reference:g}")
    return "\n".join(lines)


def line_plot(
    series: Dict[str, List[Tuple[float, float]]],
    title: str = "",
    width: int = 64,
    height: int = 16,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Multiple (x, y) series on one character grid, distinct markers."""
    markers = "ox+*#@%&"
    points = [(x, y) for values in series.values() for x, y in values]
    if not points:
        return title
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = (x_high - x_low) or 1.0
    y_span = (y_high - y_low) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for index, (name, values) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in values:
            column = int(round((x - x_low) / x_span * (width - 1)))
            row = height - 1 - int(round((y - y_low) / y_span * (height - 1)))
            grid[row][column] = marker
    lines = [title] if title else []
    if y_label:
        lines.append(f"{y_label} (top={y_high:g}, bottom={y_low:g})")
    lines += ["  |" + "".join(row) for row in grid]
    lines.append("  +" + "-" * width)
    axis = f"   {x_low:g}" + " " * max(1, width - 12) + f"{x_high:g}"
    lines.append(axis + (f"  {x_label}" if x_label else ""))
    legend = "   " + "   ".join(
        f"{markers[i % len(markers)]}={name}" for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)


def fig4_chart(rows) -> str:
    """The Fig. 4 throughput-ratio bar chart from measured rows."""
    items = [(row.display, row.throughput_ratio) for row in rows]
    return bar_chart(
        items,
        title="Fig. 4: SNIC/host maximum-throughput ratio (log scale)",
    )


def fig6_chart(rows) -> str:
    items = [(row.display, row.efficiency_ratio) for row in rows]
    return bar_chart(
        items,
        title="Fig. 6: SNIC/host energy-efficiency ratio (log scale)",
    )


def fig5_chart(curves) -> str:
    series = {
        curve.label: [(p.offered_gbps, p.achieved_gbps) for p in curve.points]
        for curve in curves
    }
    return line_plot(
        series,
        title="Fig. 5: achieved vs offered rate",
        x_label="offered Gb/s",
        y_label="achieved Gb/s",
    )
