"""Telemetry overhead benchmarks: the metric registry must be free when
idle and cheap when hot.

Mirrors the flight-recorder's ``trace_disabled_overhead`` contract: the
typed registry (repro.obs.metrics) backs every counter, so a regression
here taxes every experiment.  The gate compares the same event-kernel
workload against the ``event_kernel`` baseline
recorded earlier in this session (or the machine's last
``BENCH_kernel.json``) — run ``test_bench_kernel.py`` first so the
in-session baseline exists.
"""

import json
from pathlib import Path

import pytest
from conftest import _RECORDS, mean_seconds, record_bench

from repro.core.engine import Simulator
from repro.core.resources import Resource
from repro.obs import metrics


def test_metrics_disabled_overhead(benchmark):
    """Registry-backed counters must not tax the untouched hot path.

    Same 2000-job event-kernel workload as
    ``test_event_kernel_throughput``; the kernel itself records nothing
    per event, so routing counters through the typed registry must
    leave its cost within noise of the baseline.  Median-vs-median with
    a loose 4x tolerance — a tripwire for accidental per-event metric
    writes, not a microbenchmark.
    """

    def run():
        sim = Simulator()
        core = Resource(sim, capacity=2)

        def job():
            yield core.request()
            yield sim.timeout(1e-6)
            core.release()

        for _ in range(2000):
            sim.process(job())
        sim.run()
        return sim.events_fired

    fired = benchmark(run)
    assert fired > 0
    stats = benchmark.stats.stats
    median = float(stats.median)
    record_bench("metrics", "metrics_disabled_overhead",
                 seconds_mean=mean_seconds(benchmark),
                 seconds_median=median, rounds=int(stats.rounds),
                 events_fired=int(fired))

    baseline = _RECORDS.get("kernel", {}).get("event_kernel", {})
    if not baseline:
        baseline_path = (Path(__file__).resolve().parent.parent
                         / "BENCH_kernel.json")
        if not baseline_path.exists():
            pytest.skip("no event_kernel baseline recorded on this machine")
        baseline = json.loads(baseline_path.read_text()).get("event_kernel", {})
    reference = baseline.get("seconds_median") or baseline.get("seconds_mean")
    if not reference:
        pytest.skip("baseline lacks event_kernel timings")
    assert median < 4.0 * reference, (
        f"kernel run under the typed registry took {median:.4f}s (median "
        f"of {stats.rounds} rounds) vs baseline {reference:.4f}s — metric "
        f"bookkeeping is leaking into the hot path"
    )


def test_counter_increment_rate(benchmark):
    """Record (not gate) the cost of one registry counter increment."""
    registry = metrics.MetricRegistry()
    counter = registry.counter("bench.counter")

    def run():
        for _ in range(10_000):
            counter.inc()
        return counter.value

    benchmark(run)
    seconds = mean_seconds(benchmark)
    record_bench("metrics", "counter_inc_x10k", seconds_mean=seconds,
                 incs_per_sec=10_000 / seconds if seconds else None)


def test_histogram_observe_rate(benchmark):
    """Record (not gate) the cost of one histogram observation."""
    registry = metrics.MetricRegistry()
    hist = registry.histogram("bench.hist",
                              buckets=metrics.DEFAULT_SECONDS_BUCKETS)

    def run():
        for i in range(10_000):
            hist.observe(1e-4 * (i % 100 + 1))
        return hist.count

    benchmark(run)
    seconds = mean_seconds(benchmark)
    record_bench("metrics", "histogram_observe_x10k", seconds_mean=seconds,
                 observes_per_sec=10_000 / seconds if seconds else None)
