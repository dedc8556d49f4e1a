"""Measurement instruments for simulated experiments.

The paper's methodology is: drive a function at a fixed offered rate, then
report the sustained throughput and the p99 of per-request latency at that
rate.  These classes implement that methodology, including warmup trimming
(the paper discards ramp-up).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np


@dataclass(frozen=True)
class LatencySummary:
    """p50/p99/mean/max of one latency sample set, computed in one pass."""

    count: int
    p50: float
    p99: float
    mean: float
    max: float


_EMPTY_SUMMARY = LatencySummary(
    count=0, p50=float("inf"), p99=float("inf"), mean=float("inf"),
    max=float("inf"),
)


def summarize_samples(samples: np.ndarray) -> LatencySummary:
    """Summary statistics with a single array conversion and percentile
    call — the per-probe alternative to four separate reductions."""
    data = np.asarray(samples, dtype=float)
    if data.size == 0:
        return _EMPTY_SUMMARY
    p50, p99 = np.percentile(data, (50.0, 99.0))
    return LatencySummary(
        count=int(data.size),
        p50=float(p50),
        p99=float(p99),
        mean=float(np.mean(data)),
        max=float(np.max(data)),
    )


class LatencyRecorder:
    """Collects per-request latency samples after a warmup boundary."""

    def __init__(self, warmup_until: float = 0.0):
        self.warmup_until = warmup_until
        self._samples: List[float] = []
        self._dropped_warmup = 0

    def record(self, completion_time: float, latency: float) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        if completion_time < self.warmup_until:
            self._dropped_warmup += 1
            return
        self._samples.append(latency)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def warmup_count(self) -> int:
        return self._dropped_warmup

    def percentile(self, q: float) -> float:
        """q in [0, 100]; returns +inf when no samples were kept."""
        if not self._samples:
            return float("inf")
        return float(np.percentile(np.asarray(self._samples), q))

    def p50(self) -> float:
        return self.percentile(50.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def mean(self) -> float:
        if not self._samples:
            return float("inf")
        return float(np.mean(self._samples))

    def max(self) -> float:
        if not self._samples:
            return float("inf")
        return float(np.max(self._samples))

    def summary(self) -> LatencySummary:
        """All summary statistics from one conversion of the sample list
        (``percentile``/``mean``/``max`` each convert separately)."""
        return summarize_samples(self._samples)


class ThroughputMeter:
    """Counts completed requests/bytes inside the measurement window."""

    def __init__(self, warmup_until: float = 0.0):
        self.warmup_until = warmup_until
        self.requests = 0
        self.bytes = 0
        self.first_completion: Optional[float] = None
        self.last_completion: Optional[float] = None

    def record(self, completion_time: float, nbytes: int = 0) -> None:
        if completion_time < self.warmup_until:
            return
        self.requests += 1
        self.bytes += nbytes
        if self.first_completion is None:
            self.first_completion = completion_time
        self.last_completion = completion_time

    def request_rate(self, window: float) -> float:
        """Completed requests per second over an explicit window length."""
        if window <= 0:
            return 0.0
        return self.requests / window

    def byte_rate(self, window: float) -> float:
        if window <= 0:
            return 0.0
        return self.bytes / window

    def gbps(self, window: float) -> float:
        return self.byte_rate(window) * 8 / 1e9


@dataclass
class RunMetrics:
    """Everything one fixed-rate run produces.

    Latencies are seconds; throughput fields are per second over the
    measurement window.
    """

    offered_rate: float
    duration: float
    completed: int
    completed_rate: float
    goodput_gbps: float
    latency_p50: float
    latency_p99: float
    latency_mean: float
    dropped: int = 0
    # Mostly numeric side-channels; failed probes also record the error
    # type/message strings here (see core.sweep._failed_probe_metrics).
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def sustained(self) -> bool:
        """Did the system keep up with the offered load (within 2 %)?"""
        if self.offered_rate <= 0:
            return True
        return self.completed_rate >= 0.98 * self.offered_rate

    def latency_p99_us(self) -> float:
        return self.latency_p99 / 1e-6
