"""Datacenter network traces (Fig. 7 and §5.1).

The paper replays a network trace from a hyperscaler whose average data
rate is low (~0.76 Gb/s through the REM function, Table 4) with diurnal
structure and microbursts — characteristics it cross-references against
Benson et al. and Zhang et al.  :func:`hyperscaler_trace` synthesizes a
rate series with those properties; the generator is deterministic per
seed so every experiment replays the same "measured" trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RateTrace:
    """A time series of network data rates."""

    interval_s: float
    gbps: np.ndarray
    label: str = ""

    @property
    def duration_s(self) -> float:
        return self.interval_s * len(self.gbps)

    def average_gbps(self) -> float:
        return float(self.gbps.mean()) if len(self.gbps) else 0.0

    def peak_gbps(self) -> float:
        return float(self.gbps.max()) if len(self.gbps) else 0.0

    def percentile_gbps(self, q: float) -> float:
        return float(np.percentile(self.gbps, q))


def hyperscaler_trace(
    duration_s: float = 3600.0,
    interval_s: float = 1.0,
    average_gbps: float = 0.76,
    seed: int = 2023,
    burst_factor: float = 8.0,
    burst_probability: float = 0.02,
) -> RateTrace:
    """A synthetic stand-in for the paper's hyperscaler trace (Fig. 7).

    Structure: a slowly-varying diurnal baseline, lognormal per-interval
    jitter, and occasional microbursts reaching ``burst_factor`` times the
    baseline — then the series is rescaled so its mean matches the
    measured 0.76 Gb/s average of Table 4.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s / interval_s))
    if n < 1:
        raise ValueError("trace too short")
    t = np.arange(n) * interval_s
    # Diurnal-ish baseline compressed into the window: two superposed tones.
    baseline = 1.0 + 0.45 * np.sin(2 * np.pi * t / duration_s) + 0.2 * np.sin(
        2 * np.pi * t / (duration_s / 7) + 1.3
    )
    jitter = rng.lognormal(mean=0.0, sigma=0.35, size=n)
    series = baseline * jitter
    bursts = rng.random(n) < burst_probability
    series[bursts] *= burst_factor * rng.uniform(0.5, 1.5, size=int(bursts.sum()))
    series = np.clip(series, 0.01, None)
    series *= average_gbps / series.mean()
    return RateTrace(interval_s=interval_s, gbps=series, label="hyperscaler")


def summarize(trace: RateTrace) -> dict:
    """The Fig. 7 descriptive statistics."""
    return {
        "duration_s": trace.duration_s,
        "average_gbps": trace.average_gbps(),
        "peak_gbps": trace.peak_gbps(),
        "p50_gbps": trace.percentile_gbps(50),
        "p99_gbps": trace.percentile_gbps(99),
    }
