"""Typed metric registry with deterministic cross-process merging.

The experiment stack counts cheap, coarse things — rate probes run,
cache hits, kernel events, trace-buffer evictions — so the CLI can
report what a command actually did, and the run farm asks questions
that need distributions and point-in-time values ("what is the p99 unit
wall time", "how uneven is events/s across the fleet").  One registry
holds every metric kind:

* :class:`Counter` — a monotone integer, keyed by any dotted name (the
  well-known names are the constants below), bumped with
  ``counter(NAME).inc(n)``;
* :class:`Gauge` — a last-written float (queue depth, ETA, SLO
  measurements);
* :class:`Histogram` — deterministic log-spaced buckets *plus* the raw
  observations, so bucket counts and exact nearest-rank quantiles are
  both available.  Harness-level distributions are small (thousands of
  per-unit timings, not per-request samples), so keeping the values is
  cheap and buys exactness.

The determinism contract
------------------------

A worker snapshots the registry before a unit (:func:`snapshot`),
computes the delta after (:func:`delta_since`), and ships the delta — a
plain picklable dict — back to the parent, which folds deltas in
**submission order** (:func:`merge`).  Counter totals are therefore
identical whether a study ran with ``--jobs 1`` or ``--jobs N``.
Histogram deltas carry the raw values observed during the unit and the
parent *re-observes them in order*, so bucket counts, float sums, and
quantiles are bit-identical between ``--jobs 1`` and ``--jobs N``.
Gauges merge last-write-wins in merge order, which is submission order,
which is the serial order.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

# -- well-known counter names ------------------------------------------------

PROBES = "probes"
# Probes an analytic warm start avoided versus the equivalent cold
# search (an estimate: the cold control flow replayed against the found
# rate) — see core.sweep.find_max_sustainable_rate(warm_start=...).
PROBES_SAVED = "probe.saved"
# Hybrid engine accounting (DESIGN.md "Hybrid probe engine"): every
# probe evaluation increments PROBES; PROBES_SIMULATED counts the ones
# actually run through a queueing kernel, ANALYTIC_HITS the ones served
# by the validated analytic fast path (so PROBES == simulated +
# analytic), and SAMPLES_REUSED the simulated probes that reused a
# sibling rung's sampled service/interarrival/RTT arrays instead of
# drawing fresh ones.
PROBES_SIMULATED = "probe.simulated"
# Simulated knee rungs stopped early because their drops already proved
# them unacceptable (DESIGN.md §9 "verdict-only rungs"); a subset of
# PROBES_SIMULATED.
VERDICT_ONLY = "probe.verdict_only"
ANALYTIC_HITS = "analytic.hits"
SAMPLES_REUSED = "probe.samples_reused"
CACHE_HITS = "cache_hits"
CACHE_MISSES = "cache_misses"
# Disk-cache entries that failed to unpickle and were quarantined to a
# ``*.corrupt`` sibling (never silently swallowed) — see core.cache.
CACHE_CORRUPT = "cache.corrupt"
# Run-farm supervision counters (runfarm/): unit attempts that hit the
# wall-clock deadline and were SIGKILLed, workers that died mid-unit,
# harness-level retries, units quarantined as poison pills after
# exhausting attempts, units served from a prior run's manifest +
# artifact store on --resume, and worker heartbeats observed by the
# parent-side health monitor.
RUNFARM_TIMEOUTS = "runfarm.timeout"
RUNFARM_WORKER_LOST = "runfarm.worker_lost"
RUNFARM_RETRIES = "runfarm.retries"
RUNFARM_QUARANTINED = "runfarm.quarantined"
RUNFARM_RESUMED = "runfarm.resumed"
RUNFARM_HEARTBEATS = "runfarm.heartbeats"
RUNFARM_WORKERS_HUNG = "runfarm.workers_hung"
RUNFARM_WORKERS_SLOW = "runfarm.workers_slow"
# Kernel flight-recorder counters: folded by Simulator.run() and the
# trace ring buffer; merged across workers like every other counter.
EVENTS_SCHEDULED = "sim.events_scheduled"
EVENTS_FIRED = "sim.events_fired"
TRACE_DROPPED = "trace.dropped"


def log_buckets(lo: float, hi: float, per_decade: int = 4) -> Tuple[float, ...]:
    """Deterministic log-spaced histogram bucket bounds covering [lo, hi].

    Bounds are ``10**(i / per_decade)`` for every ``i`` whose value lands
    in ``[lo, hi]`` (endpoints included), each rounded to six significant
    digits so the spec is stable across platforms and serialization.
    """
    if not (lo > 0 and hi > lo):
        raise ValueError(f"need 0 < lo < hi, got lo={lo} hi={hi}")
    if per_decade < 1:
        raise ValueError("per_decade must be >= 1")
    bounds: List[float] = []
    # Walk exponent indices upward from the first at or below lo.
    i = math.floor(math.log10(lo) * per_decade)
    while True:
        bound = float(f"{10 ** (i / per_decade):.6g}")
        if bound > hi * (1 + 1e-9):
            break
        if bound >= lo * (1 - 1e-9):
            bounds.append(bound)
        i += 1
    return tuple(bounds)


# Default buckets for wall-clock timers: 100 us .. 100 s.
DEFAULT_SECONDS_BUCKETS = log_buckets(1e-4, 100.0, per_decade=2)


class Counter:
    """A monotone integer metric."""

    kind = COUNTER

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A last-written float metric.

    ``updates`` counts writes — the delta layer uses it to detect that a
    worker touched the gauge (a gauge re-set to the same value still
    ships, matching serial last-write-wins semantics).
    """

    kind = GAUGE

    __slots__ = ("name", "help", "value", "updates")

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0.0
        self.updates = 0

    def set(self, value: float) -> None:
        self.value = float(value)
        self.updates += 1

    def add(self, amount: float) -> None:
        self.set(self.value + amount)


class Histogram:
    """Log-bucketed counts plus raw values for exact quantiles.

    ``buckets`` are ascending upper bounds (``le`` semantics, matching
    OpenMetrics); observations above the last bound land in the implicit
    ``+Inf`` bucket.  The raw observation list is retained — harness
    distributions are thousands of points, and exactness (bit-identical
    sums and nearest-rank quantiles at any ``--jobs``) is the contract.
    """

    kind = HISTOGRAM

    __slots__ = ("name", "help", "buckets", "counts", "values", "sum")

    def __init__(self, name: str, buckets: Sequence[float] = (),
                 help: str = ""):
        bounds = tuple(float(b) for b in (buckets or DEFAULT_SECONDS_BUCKETS))
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram {name!r} buckets must be strictly "
                             f"ascending: {bounds}")
        self.name = name
        self.help = help
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot is +Inf
        self.values: List[float] = []
        self.sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.buckets, value)] += 1
        self.values.append(value)
        self.sum += value

    @property
    def count(self) -> int:
        return len(self.values)

    def quantile(self, q: float) -> Optional[float]:
        """Exact nearest-rank quantile over every observation."""
        if not self.values:
            return None
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        ordered = sorted(self.values)
        # Nearest-rank: ceil(q * n), clamped to [1, n].
        rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
        return ordered[rank - 1]

    def cumulative_counts(self) -> List[int]:
        """Per-bound cumulative counts (OpenMetrics ``le`` exposition)."""
        total = 0
        out: List[int] = []
        for count in self.counts:
            total += count
            out.append(total)
        return out


Metric = Any  # Counter | Gauge | Histogram


class MetricRegistry:
    """Name -> typed metric, with snapshot/delta/merge for workers.

    Accessors are get-or-create and enforce the kind: asking for a
    counter under a name registered as a gauge is a bug, not a new
    metric.  Creation is locked (worker heartbeat threads and the main
    thread may race on first touch); single increments/observes rely on
    the GIL exactly as the flat counters did.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        self._lock = threading.Lock()

    # -- typed access -------------------------------------------------------

    def _get_or_create(self, name: str, kind: str,
                       factory: Callable[[], Metric]) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = factory()
                    self._metrics[name] = metric
        if metric.kind != kind:
            raise ValueError(
                f"metric {name!r} is a {metric.kind}, not a {kind}")
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, COUNTER,
                                   lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, GAUGE, lambda: Gauge(name, help))

    def histogram(self, name: str, buckets: Sequence[float] = (),
                  help: str = "") -> Histogram:
        return self._get_or_create(name, HISTOGRAM,
                                   lambda: Histogram(name, buckets, help))

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        """Every registered metric, sorted by name (stable exposition)."""
        return [self._metrics[name] for name in sorted(self._metrics)]

    def counter_values(self) -> Dict[str, int]:
        return {m.name: m.value for m in self._metrics.values()
                if m.kind == COUNTER}

    def reset(self) -> None:
        with self._lock:
            self._metrics.clear()

    # -- worker delta protocol ----------------------------------------------

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """A cheap marker of current state, for :meth:`delta_since`.

        Counters record their value, gauges their update count (so a
        rewrite to the same value still registers), histograms their
        observation count (the delta ships only the new tail).
        """
        counters: Dict[str, int] = {}
        gauges: Dict[str, int] = {}
        hists: Dict[str, int] = {}
        for name, metric in self._metrics.items():
            if metric.kind == COUNTER:
                counters[name] = metric.value
            elif metric.kind == GAUGE:
                gauges[name] = metric.updates
            else:
                hists[name] = len(metric.values)
        return {"counters": counters, "gauges": gauges, "hists": hists}

    def delta_since(self, before: Dict[str, Dict[str, Any]]
                    ) -> Dict[str, Dict[str, Any]]:
        """Changes since ``before`` as a plain picklable dict."""
        b_counters = before.get("counters", {})
        b_gauges = before.get("gauges", {})
        b_hists = before.get("hists", {})
        counters: Dict[str, int] = {}
        gauges: Dict[str, float] = {}
        hists: Dict[str, Dict[str, Any]] = {}
        for name, metric in self._metrics.items():
            if metric.kind == COUNTER:
                diff = metric.value - b_counters.get(name, 0)
                if diff:
                    counters[name] = diff
            elif metric.kind == GAUGE:
                if metric.updates != b_gauges.get(name, 0):
                    gauges[name] = metric.value
            else:
                start = b_hists.get(name, 0)
                if len(metric.values) > start:
                    hists[name] = {
                        "buckets": list(metric.buckets),
                        "values": metric.values[start:],
                    }
        return {"counters": counters, "gauges": gauges, "hists": hists}

    def merge(self, delta: Dict[str, Dict[str, Any]]) -> None:
        """Fold a worker delta in; call strictly in submission order.

        Histogram values are re-observed in their original order, so
        float sums and quantiles reproduce the serial run bit for bit.
        """
        for name, amount in delta.get("counters", {}).items():
            self.counter(name).inc(amount)
        for name, value in delta.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, payload in delta.get("hists", {}).items():
            hist = self.histogram(name, buckets=payload.get("buckets", ()))
            for value in payload.get("values", ()):
                hist.observe(value)

    def summary_line(self) -> str:
        """The footer's ``metrics:`` one-liner."""
        kinds = {COUNTER: 0, GAUGE: 0, HISTOGRAM: 0}
        for metric in self._metrics.values():
            kinds[metric.kind] += 1
        return (f"metrics: {kinds[COUNTER]} counters / {kinds[GAUGE]} gauges"
                f" / {kinds[HISTOGRAM]} histograms")


def counter_delta(delta: Dict[str, Dict[str, Any]], name: str) -> int:
    """One counter's increment inside a :meth:`MetricRegistry.delta_since`
    payload (0 when untouched)."""
    return int(delta.get("counters", {}).get(name, 0))


# ---------------------------------------------------------------------------
# The process-wide default registry (what the CLI footer and exporters read)
# ---------------------------------------------------------------------------

_DEFAULT = MetricRegistry()


def registry() -> MetricRegistry:
    return _DEFAULT


def counter(name: str, help: str = "") -> Counter:
    return _DEFAULT.counter(name, help)


def gauge(name: str, help: str = "") -> Gauge:
    return _DEFAULT.gauge(name, help)


def histogram(name: str, buckets: Sequence[float] = (),
              help: str = "") -> Histogram:
    return _DEFAULT.histogram(name, buckets, help)


def snapshot() -> Dict[str, Dict[str, Any]]:
    return _DEFAULT.snapshot()


def delta_since(before: Dict[str, Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    return _DEFAULT.delta_since(before)


def merge(delta: Dict[str, Dict[str, Any]]) -> None:
    _DEFAULT.merge(delta)


def reset() -> None:
    _DEFAULT.reset()


def summary_line() -> str:
    return _DEFAULT.summary_line()
