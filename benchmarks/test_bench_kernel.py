"""Performance benchmarks of the simulation substrate itself.

These measure the library's own hot loops (event kernel, Lindley fast
path, DFA scanning, DEFLATE) — regressions here make every experiment
slower.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import _RECORDS, mean_seconds, record_bench

from repro.core.engine import Simulator
from repro.core.resources import Resource
from repro.core import trace
from repro.obs import metrics
from repro.core.queueing import (
    bounded_waits,
    lindley_waits,
    simulate_batch_server,
    simulate_gg1,
)
from repro.core.rng import RandomStreams
from repro.functions.compression import deflate
from repro.functions.regex.rulesets import compile_ruleset
from repro.workloads.corpus import make_compression_input


def test_event_kernel_throughput(benchmark):
    """Events processed per second by the DES kernel."""

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
        return sim._sequence  # events scheduled == events processed

    events = benchmark(run)
    seconds = mean_seconds(benchmark)
    stats = benchmark.stats.stats
    record_bench("kernel", "event_kernel", seconds_mean=seconds,
                 seconds_median=float(stats.median),
                 rounds=int(stats.rounds),
                 events=int(events),
                 events_per_sec=events / seconds if seconds else None)


def test_lindley_fast_path(benchmark):
    """The G/G/1 fast path that powers every rate probe."""
    rng = np.random.default_rng(0)

    def run():
        return simulate_gg1(
            1e6, lambda r, n: r.exponential(8e-7, size=n), 20_000, rng,
            queue_limit=1e-4,
        )

    benchmark(run)
    seconds = mean_seconds(benchmark)
    record_bench("kernel", "lindley_fast_path", seconds_mean=seconds,
                 requests=20_000,
                 requests_per_sec=20_000 / seconds if seconds else None)


def test_lindley_vectorized(benchmark):
    """The bare closed-form Lindley kernel (no RNG, no drop logic)."""
    rng = np.random.default_rng(1)
    gaps = rng.exponential(1e-6, size=20_000)
    services = rng.exponential(8e-7, size=20_000)

    def run():
        return lindley_waits(gaps, services)

    benchmark(run)
    seconds = mean_seconds(benchmark)
    record_bench("kernel", "lindley_vectorized", seconds_mean=seconds,
                 requests=20_000,
                 requests_per_sec=20_000 / seconds if seconds else None)


def test_bounded_buffer(benchmark):
    """The bounded-buffer drop kernel under real overload (block fixed
    point with drops in every block)."""
    rng = np.random.default_rng(2)
    arrivals = np.cumsum(rng.exponential(1e-6, size=20_000))
    services = rng.exponential(1.4e-6, size=20_000)  # rho = 1.4: drops

    def run():
        return bounded_waits(arrivals, services, 1e-5)

    kept, _ = benchmark(run)
    assert 0 < kept.sum() < 20_000  # the case actually exercises drops
    seconds = mean_seconds(benchmark)
    record_bench("kernel", "bounded_buffer", seconds_mean=seconds,
                 requests=20_000,
                 requests_per_sec=20_000 / seconds if seconds else None)


def test_batch_server(benchmark):
    """The accelerator batch-server path (searchsorted scheduling)."""
    rng = np.random.default_rng(3)

    def run():
        return simulate_batch_server(
            5e5, 20_000, rng, batch_size=32, batch_timeout=1e-4,
            setup_time=3e-5, per_item_time=1e-6,
        )

    benchmark(run)
    seconds = mean_seconds(benchmark)
    record_bench("kernel", "batch_server", seconds_mean=seconds,
                 requests=20_000,
                 requests_per_sec=20_000 / seconds if seconds else None)


def test_sweep_probe_count(benchmark):
    """Warm-started vs cold sweep: record how many probes the analytic
    estimate saves on a fig4 smoke pair (the benchmark clock times the
    warm search; the interesting numbers are the probe counts)."""
    from repro.experiments.measurement import sweep_operating_rate
    from repro.experiments.profiles import get_profile

    profile = get_profile("udp:64", samples=60)
    metrics.reset()
    warm = benchmark.pedantic(
        sweep_operating_rate, args=(profile, "host", RandomStreams(1)),
        kwargs={"n_requests": 20_000, "warm": True}, rounds=1, iterations=1)
    saved = metrics.counter(metrics.PROBES_SAVED).value
    cold = sweep_operating_rate(profile, "host", RandomStreams(1),
                                n_requests=20_000, warm=False)
    record_bench("kernel", "sweep_probes",
                 probes_warm=len(warm.probes), probes_cold=len(cold.probes),
                 probes_saved=saved,
                 max_rate_warm=warm.max_rate, max_rate_cold=cold.max_rate)
    assert len(warm.probes) < len(cold.probes)
    assert saved > 0


def test_trace_disabled_overhead(benchmark):
    """Flight-recorder overhead contract: tracing off must cost ~nothing.

    Runs the same kernel workload as ``test_event_kernel_throughput``
    with tracing disabled and guards against the untraced kernel number
    recorded earlier in this session (falling back to the machine's last
    ``BENCH_kernel.json``).  Both sides of the comparison use the
    *median* over the harness's repetitions — a single allocator stall or
    scheduler preemption on a shared CI runner skews a mean for the whole
    session, while the median needs half the rounds to go bad — and the
    repetition counts land in the artifact so a flaky verdict can be
    weighed by how many rounds backed it.  The tolerance is deliberately
    loose (4x): this is a tripwire for accidental hot-path
    instrumentation (e.g. emitting events without the ``trace.TRACING``
    guard), not a microbenchmark of machine noise.
    """
    trace.disable()

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
    record_bench("kernel", "trace_disabled_overhead",
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
        f"disabled-trace kernel run took {median:.4f}s (median of "
        f"{stats.rounds} rounds) vs baseline {reference:.4f}s — tracing is "
        f"leaking into the hot path"
    )


def test_trace_enabled_ratio(benchmark):
    """Record (not gate) the enabled-tracing cost of the same workload."""

    def run():
        trace.enable(capacity=1 << 14)
        try:
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
        finally:
            trace.disable()

    fired = benchmark(run)
    record_bench("kernel", "trace_enabled", seconds_mean=mean_seconds(benchmark),
                 events_fired=int(fired))


def test_dfa_scan_rate(benchmark):
    """Multi-pattern scanning over a 16 KiB payload."""
    matcher = compile_ruleset("file_executable")
    payload = make_compression_input("app", 16 * 1024)

    def run():
        return matcher.scan(payload)

    benchmark(run)


def test_deflate_rate(benchmark):
    """Level-6 DEFLATE over a 4 KiB text chunk."""
    data = make_compression_input("txt", 4096)

    def run():
        return deflate.compress(data, level=6)

    benchmark(run)
