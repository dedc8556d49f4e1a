"""Figure 7: network data rates over time (the hyperscaler trace)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..workloads.traces import RateTrace, hyperscaler_trace, summarize
from .registry import Experiment, register, smoke_tier


@dataclass
class Fig7Result:
    trace: RateTrace
    stats: Dict[str, float]

    def series(self) -> List[float]:
        return [float(v) for v in self.trace.gbps]


def run_fig7(duration_s: float = 3600.0, seed: int = 2023) -> Fig7Result:
    trace = hyperscaler_trace(duration_s=duration_s, seed=seed)
    return Fig7Result(trace=trace, stats=summarize(trace))


def format_fig7(result: Fig7Result, width: int = 72, height: int = 12) -> str:
    """ASCII sparkline of the rate series plus summary statistics."""
    series = result.series()
    bucket = max(1, len(series) // width)
    downsampled = [
        max(series[i : i + bucket]) for i in range(0, len(series), bucket)
    ][:width]
    peak = max(downsampled) or 1.0
    rows = []
    for level in range(height, 0, -1):
        threshold = peak * level / height
        rows.append(
            "".join("#" if value >= threshold else " " for value in downsampled)
        )
    stats = result.stats
    rows.append("-" * len(downsampled))
    rows.append(
        f"avg {stats['average_gbps']:.2f} Gb/s | p50 {stats['p50_gbps']:.2f} | "
        f"p99 {stats['p99_gbps']:.2f} | peak {stats['peak_gbps']:.2f} | "
        f"{stats['duration_s']:.0f}s"
    )
    return "\n".join(rows)


register(Experiment(
    name="fig7",
    description="the synthetic hyperscaler rate trace with its summary "
                "statistics (the Table 4 replay input)",
    # The trace is a fixed artifact (seed 2023 regardless of --seed, as
    # the CLI has always generated it); it is cheap enough to build at
    # full length even at smoke fidelity.
    runner=lambda ctx: run_fig7(),
    formatter=format_fig7,
    to_json=lambda result: {"stats": dict(result.stats),
                            "series_gbps": result.series()},
    schema={
        "type": "object",
        "required": ["stats", "series_gbps"],
        "properties": {
            "stats": {
                "type": "object",
                "required": ["average_gbps", "p50_gbps", "p99_gbps",
                             "peak_gbps", "duration_s"],
            },
            "series_gbps": {"type": "array", "minItems": 1,
                            "items": {"type": "number"}},
        },
    },
    tiers=smoke_tier(),
))
