"""Maximum-sustainable-throughput search.

The paper reports, per function and platform, "the packet rate at which we
get the maximum throughput" and "the p99 latency at that rate" (§4).  This
module implements that procedure against any ``run_at(rate) -> RunMetrics``
callable: a coarse geometric scan brackets the saturation point, then a
binary search refines it, and the metrics of the highest sustained rate are
returned.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..obs import metrics as obs_metrics
from . import trace
from .metrics import RunMetrics

logger = logging.getLogger("repro.sweep")

RunFn = Callable[[float], RunMetrics]


@dataclass
class SweepResult:
    """Outcome of a max-throughput search."""

    max_rate: float
    metrics: RunMetrics
    probes: List[RunMetrics] = field(default_factory=list)

    @property
    def p99(self) -> float:
        return self.metrics.latency_p99

    @property
    def goodput_gbps(self) -> float:
        return self.metrics.goodput_gbps


def _failed_probe_metrics(rate: float, error: Exception) -> RunMetrics:
    """A well-defined sentinel for a probe whose ``run_at`` raised.

    The exception is recorded in ``extra`` so failed probes remain
    diagnosable from ``SweepResult.probes`` after the search returns.
    """
    return RunMetrics(
        offered_rate=rate,
        duration=0.0,
        completed=0,
        completed_rate=0.0,
        goodput_gbps=0.0,
        latency_p50=float("inf"),
        latency_p99=float("inf"),
        latency_mean=float("inf"),
        dropped=0,
        extra={
            "probe_failed": 1.0,
            "error_type": type(error).__name__,
            "error_message": str(error)[:500],
        },
    )


def _acceptable(metrics: RunMetrics, slo_p99: Optional[float]) -> bool:
    if not metrics.sustained:
        return False
    if slo_p99 is not None and metrics.latency_p99 > slo_p99:
        return False
    return True


# Warm-start bracket shape: probe (1 - _WARM_BELOW) and (1 + _WARM_ABOVE)
# times the analytic capacity estimate and bisect between them.
_WARM_BELOW = 0.25
_WARM_ABOVE = 0.10


def _cold_probe_count(
    low_rate: float,
    high_rate: float,
    max_rate: float,
    tolerance: float,
    max_probes: int,
) -> int:
    """Probes the *cold* search would spend to land on ``max_rate``.

    Replays the cold control flow (floor probe, geometric ramp,
    bisection) against the oracle "acceptable iff rate <= max_rate".
    An estimate — the real search answers probes by simulation — used
    only to size the ``probe.saved`` instrumentation counter.
    """
    count = 1  # the floor probe
    lo, hi = low_rate, None
    rate = low_rate
    while count < max_probes:
        rate = min(rate * 2.0, high_rate)
        count += 1
        if rate <= max_rate:
            lo = rate
            if rate >= high_rate:
                return count
        else:
            hi = rate
            break
    if hi is None:
        return count
    while hi - lo > tolerance * hi and count < max_probes:
        mid = (lo + hi) / 2.0
        count += 1
        if mid <= max_rate:
            lo = mid
        else:
            hi = mid
    return count


def find_max_sustainable_rate(
    run_at: RunFn,
    low_rate: float,
    high_rate: float,
    slo_p99: Optional[float] = None,
    tolerance: float = 0.02,
    max_probes: int = 40,
    warm_start: Optional[float] = None,
) -> SweepResult:
    """Search [low_rate, high_rate] for the highest acceptable offered rate.

    ``slo_p99`` (seconds) optionally bounds the p99 at the chosen point —
    this is how SLO-constrained operating points are located.  ``tolerance``
    is the relative width at which bisection stops.

    ``warm_start`` (requests/s) is an analytic capacity estimate (see
    :mod:`repro.core.analytic`): instead of ramping up from the floor,
    the search brackets the estimate directly — probe just below it,
    then just above, and bisect.  A good estimate collapses the search
    to a handful of probes; a bad one degrades gracefully (too high:
    verify the floor and bisect below; too low: resume the geometric
    ramp from the estimate).  The answer is always probe-verified — the
    estimate never substitutes for simulation.  The probes a warm start
    avoided versus the replayed cold search are credited to the
    ``probe.saved`` counter (:data:`repro.obs.metrics.PROBES_SAVED`).

    A ``run_at`` that raises is contained: the failed probe is recorded in
    ``SweepResult.probes`` (see ``SweepResult.failed_probes``) and treated
    as unsustainable.  If nothing — including the floor — sustains, the
    result still carries ``max_rate=low_rate`` with ``sustainable`` False:
    a well-defined "no sustainable rate" answer instead of an exception
    mid-search.
    """
    if low_rate <= 0 or high_rate <= low_rate:
        raise ValueError("need 0 < low_rate < high_rate")

    probes: List[RunMetrics] = []

    def probe(rate: float) -> RunMetrics:
        # A probe that raises (a fault scenario with a dead path, a model
        # bug at an extreme rate) must not abort the whole search: record
        # it as an unsustainable point and let the bracketing continue.
        try:
            metrics = run_at(rate)
        except Exception as error:  # noqa: BLE001 — deliberate containment
            logger.warning("probe at rate %.6g failed (%s: %s); contained",
                           rate, type(error).__name__, error)
            metrics = _failed_probe_metrics(rate, error)
        probes.append(metrics)
        if trace.TRACING:
            trace.instant(
                "sweep.probe", trace.PROBE,
                rate=round(rate, 6),
                sustained=bool(metrics.sustained),
                p99_us=(round(metrics.latency_p99 * 1e6, 3)
                        if metrics.latency_p99 != float("inf") else -1.0),
                failed=bool(metrics.extra.get("probe_failed")),
            )
        return metrics

    def finish(max_rate: float, metrics: RunMetrics) -> SweepResult:
        if warm_start is not None and _acceptable(metrics, slo_p99):
            cold = _cold_probe_count(low_rate, high_rate, max_rate,
                                     tolerance, max_probes)
            saved = cold - len(probes)
            if saved > 0:
                obs_metrics.counter(obs_metrics.PROBES_SAVED).inc(saved)
            if trace.TRACING:
                trace.instant("sweep.warm_start", trace.PROBE,
                              guess=round(warm_start, 6),
                              probes=len(probes), cold_estimate=cold)
        return SweepResult(max_rate=max_rate, metrics=metrics, probes=probes)

    def bisect(lo: float, hi: float, best: RunMetrics) -> SweepResult:
        # Bisection between last-good and first-bad.
        while hi - lo > tolerance * hi and len(probes) < max_probes:
            mid = (lo + hi) / 2.0
            metrics = probe(mid)
            if _acceptable(metrics, slo_p99):
                best, lo = metrics, mid
            else:
                hi = mid
        return finish(lo, best)

    def ramp(start: float, best: RunMetrics) -> SweepResult:
        # Geometric ramp until the first unacceptable rate or the ceiling.
        lo = start
        rate = start
        while len(probes) < max_probes:
            rate = min(rate * 2.0, high_rate)
            metrics = probe(rate)
            if _acceptable(metrics, slo_p99):
                best, lo = metrics, rate
                if rate >= high_rate:
                    return finish(rate, metrics)
            else:
                return bisect(lo, rate, best)
        # Probe budget exhausted while still sustaining.
        return finish(lo, best)

    if warm_start is not None and warm_start > 0:
        guess = min(max(warm_start, low_rate), high_rate)
        below = max(low_rate, (1.0 - _WARM_BELOW) * guess)
        below_metrics = probe(below)
        if _acceptable(below_metrics, slo_p99):
            above = min(high_rate, (1.0 + _WARM_ABOVE) * guess)
            if above <= below:
                # Both probes clamp to the same point (estimate pinned at
                # a bracket edge): ramp from the verified rate.
                return ramp(below, below_metrics)
            above_metrics = probe(above)
            if _acceptable(above_metrics, slo_p99):
                if above >= high_rate:
                    return finish(above, above_metrics)
                # Estimate was low — keep climbing from above the guess.
                return ramp(above, above_metrics)
            return bisect(below, above, below_metrics)
        # Estimate was high: fall back to verifying the floor, then
        # bisect between the floor and the failed probe.
        if below <= low_rate:
            # The failed probe WAS the floor: no sustainable rate.
            return finish(low_rate, below_metrics)
        low_metrics = probe(low_rate)
        if not _acceptable(low_metrics, slo_p99):
            return finish(low_rate, low_metrics)
        return bisect(low_rate, below, low_metrics)

    low_metrics = probe(low_rate)
    if not _acceptable(low_metrics, slo_p99):
        # Even the floor rate violates: report the floor as the max point.
        return finish(low_rate, low_metrics)
    return ramp(low_rate, low_metrics)
