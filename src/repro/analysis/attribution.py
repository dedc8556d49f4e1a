"""Latency attribution: where each operating point's sojourn comes from.

Every fast-path queue simulation decomposes per-request latency into
components that sum exactly to the sojourn (see
``repro.core.queueing.COMPONENTS``): FIFO queueing wait, service, batch
formation wait (accelerator path), the fixed stack-RTT floor, and
retry/fault stall.  :func:`outcome_to_metrics` folds the post-warmup
means of those components into ``RunMetrics.extra`` as ``attr.*`` keys;
this module renders them as the attribution table in EXPERIMENTS.md.

Two views per operating point:

* **mean** — component means over the measurement window.  These sum to
  the reported ``latency_mean`` exactly (same warmup trim), which the
  ``check`` column verifies.
* **p99 tail** — component means conditioned on requests at or above
  the window's p99, showing what the tail is made of (queueing for
  CPU platforms near saturation, batch formation for the accelerator).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from ..core.queueing import COMPONENTS

COMPONENT_LABELS = {
    "queue_wait": "queue",
    "service": "service",
    "batch_wait": "batch",
    "stack_rtt": "stack",
    "stall": "stall",
}


@dataclass
class AttributionRow:
    """One operating point's latency decomposition (seconds)."""

    function: str
    platform: str
    mean_s: float
    tail_mean_s: float
    mean_components: Dict[str, float] = field(default_factory=dict)
    tail_components: Dict[str, float] = field(default_factory=dict)

    @property
    def component_sum_s(self) -> float:
        return sum(self.mean_components.values())

    @property
    def residual_fraction(self) -> float:
        """|sum(components) - mean| / mean; ~0 when attribution is exact."""
        if self.mean_s <= 0:
            return 0.0
        return abs(self.component_sum_s - self.mean_s) / self.mean_s


def row_from_metrics(function: str, platform: str, metrics) -> AttributionRow:
    """Build a row from a :class:`RunMetrics` carrying ``attr.*`` extras."""
    extra = metrics.extra or {}
    row = AttributionRow(
        function=function,
        platform=platform,
        mean_s=extra.get("attr.sojourn_mean_s", metrics.latency_mean),
        tail_mean_s=extra.get("attr.tail_mean_s", metrics.latency_p99),
    )
    for name in COMPONENTS:
        mean = extra.get(f"attr.{name}_mean_s")
        if mean is not None:
            row.mean_components[name] = mean
        tail = extra.get(f"attr.{name}_tail_s")
        if tail is not None:
            row.tail_components[name] = tail
    return row


def rows_from_fig4(fig4_rows: Sequence) -> List[AttributionRow]:
    """Host and SNIC attribution rows for every Fig. 4 function."""
    rows: List[AttributionRow] = []
    for fig_row in fig4_rows:
        rows.append(row_from_metrics(fig_row.key, "host", fig_row.host.metrics))
        rows.append(row_from_metrics(fig_row.key, fig_row.snic_platform,
                                     fig_row.snic.metrics))
    return rows


def _us(value: float) -> str:
    return f"{value * 1e6:.2f}"


def format_attribution_markdown(rows: Sequence[AttributionRow]) -> str:
    """The EXPERIMENTS.md table: mean + tail split per operating point."""
    lines = [
        "| function | platform | mean us | queue | service | batch | stack "
        "| stall | check | p99-tail us | tail queue | tail service |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in rows:
        comp = row.mean_components
        tail = row.tail_components
        check = "ok" if row.residual_fraction <= 0.01 else (
            f"off {row.residual_fraction:.1%}")
        lines.append(
            f"| {row.function} | {row.platform} | {_us(row.mean_s)} "
            f"| {_us(comp.get('queue_wait', 0.0))} "
            f"| {_us(comp.get('service', 0.0))} "
            f"| {_us(comp.get('batch_wait', 0.0))} "
            f"| {_us(comp.get('stack_rtt', 0.0))} "
            f"| {_us(comp.get('stall', 0.0))} "
            f"| {check} "
            f"| {_us(row.tail_mean_s)} "
            f"| {_us(tail.get('queue_wait', 0.0) + tail.get('batch_wait', 0.0))} "
            f"| {_us(tail.get('service', 0.0))} |"
        )
    return "\n".join(lines)
