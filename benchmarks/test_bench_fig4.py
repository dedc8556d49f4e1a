"""Benchmark: regenerate Figure 4 (normalized throughput & p99, all
functions) and print it next to the paper's reported ranges."""

import time

from conftest import N_REQUESTS, SAMPLES, mean_seconds, record_bench, run_once

from repro.core import executor
from repro.obs import metrics
from repro.core.cache import ResultCache, configure
from repro.core.executor import ParallelExecutor
from repro.core.rng import RandomStreams
from repro.experiments.fig4 import format_fig4, run_fig4

PAPER_NOTES = """
paper Fig. 4 anchors:
  throughput ratio range .......... 0.1x - 3.5x
  p99 ratio range ................. 0.1x - 13.8x
  UDP micro ....................... 76.5-85.7% lower throughput
  RDMA micro ...................... up to 1.4x throughput, 15-24% lower p99
  REM file_image .................. accel 1.8x host
  REM file_flash/executable ....... accel 0.6x host
  AES / RSA ....................... host 1.385x / 1.912x accel
  SHA-1 ........................... accel 1.89x host
  Compression ..................... accel up to 3.5x host
  MICA ............................ 19.5-54.5% lower throughput
  fio ............................. throughput parity
"""


def test_fig4(benchmark, streams):
    configure(ResultCache())
    metrics.reset()
    rows = run_once(benchmark, run_fig4, samples=SAMPLES,
                    n_requests=N_REQUESTS, streams=streams)
    record_bench("fig4", "fig4_full",
                 seconds_mean=mean_seconds(benchmark), rows=len(rows),
                 probes=metrics.counter(metrics.PROBES).value)
    print()
    print(format_fig4(rows))
    print(PAPER_NOTES)
    ratios = [r.throughput_ratio for r in rows]
    assert 0.08 <= min(ratios) <= 0.25
    assert 2.3 <= max(ratios) <= 3.8


# A cheap subset for the parallel harness itself: 2 functions x 2
# platforms = 4 independent work units, one batch.
SMOKE_KEYS = ("udp:64", "dpdk:64")
SMOKE_SAMPLES = 40
SMOKE_REQUESTS = 12_000


def test_fig4_parallel_speedup(benchmark, monkeypatch):
    """--jobs changes neither the rows nor the work, and a batch that
    forking would slow down runs in process.

    Every assert is deterministic, so the gate holds on any host: two
    usable cores are patched in, so ``jobs=4`` forks two workers
    anywhere.  The forked batch must give the rows and the merged
    counters of ``jobs=1`` exactly.  Then the bypass is priced from
    fixed estimates rather than from timings: a batch whose fork costs
    more than two workers would save must run in process, and one
    whose fork is free must fork.  The wall-clock speedup is recorded
    in BENCH_fig4.json but not gated: a 4-unit batch of ~30 ms of work
    cannot pay for its forks on a 2-vCPU guest, and the bypass then
    runs it in process.
    """
    monkeypatch.setattr(executor, "usable_cpu_count", lambda: 2)
    forks = []
    dispatch = ParallelExecutor._dispatch

    def counted_dispatch(self, units, *args, **kwargs):
        forks.append(len(units))
        return dispatch(self, units, *args, **kwargs)

    monkeypatch.setattr(ParallelExecutor, "_dispatch", counted_dispatch)

    def compute(executor_):
        configure(ResultCache())  # cold cache: measure simulation, not lookups
        metrics.reset()
        rows = run_fig4(keys=SMOKE_KEYS, samples=SMOKE_SAMPLES,
                        n_requests=SMOKE_REQUESTS,
                        streams=RandomStreams(7), executor=executor_)
        return rows, metrics.registry().counter_values()

    compute(ParallelExecutor(jobs=1))  # warm-up: profile caches, imports
    serial_start = time.perf_counter()
    serial_rows, serial_counters = compute(ParallelExecutor(jobs=1))
    serial_seconds = time.perf_counter() - serial_start
    assert forks == []

    parallel = ParallelExecutor(jobs=4)
    with monkeypatch.context() as patch:
        patch.setattr(executor, "MIN_PARALLEL_SECONDS", float("-inf"))
        parallel_rows, parallel_counters = benchmark.pedantic(
            compute, args=(parallel,), rounds=1, iterations=1)
    parallel_seconds = float(benchmark.stats.stats.mean)
    assert forks == [len(SMOKE_KEYS) * 2] and parallel.bypasses == 0
    record_bench("fig4", "parallel_speedup", jobs=4, workers=2,
                 serial_seconds=serial_seconds,
                 parallel_seconds=parallel_seconds,
                 speedup=serial_seconds / parallel_seconds)

    assert len(parallel_rows) == len(serial_rows)
    for a, b in zip(serial_rows, parallel_rows):
        assert a.key == b.key
        assert a.host.throughput_rps == b.host.throughput_rps
        assert a.snic.throughput_rps == b.snic.throughput_rps
        assert a.host.metrics.latency_p99 == b.host.metrics.latency_p99
        assert a.snic.metrics.latency_p99 == b.snic.metrics.latency_p99
    assert parallel_counters == serial_counters

    # 4 units of 10 ms: two workers would save 20 ms.  A 50 ms fork
    # cost makes the batch slower forked, so it runs in process ...
    parallel._seconds_per_unit, parallel._fork_seconds = 0.010, 0.050
    bypassed_rows, bypassed_counters = compute(parallel)
    assert parallel.bypasses == 1 and len(forks) == 1
    assert [row.host.throughput_rps for row in bypassed_rows] == [
        row.host.throughput_rps for row in serial_rows]
    assert bypassed_counters == serial_counters
    # ... and a free fork makes it fork.
    parallel._seconds_per_unit, parallel._fork_seconds = 0.010, 0.0
    compute(parallel)
    assert parallel.bypasses == 1 and len(forks) == 2
