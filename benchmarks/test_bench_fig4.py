"""Benchmark: regenerate Figure 4 (normalized throughput & p99, all
functions) and print it next to the paper's reported ranges."""

import os
import time

from conftest import N_REQUESTS, SAMPLES, mean_seconds, record_bench, run_once

from repro.obs import metrics
from repro.core.cache import ResultCache, configure
from repro.core.executor import ParallelExecutor, usable_cpu_count
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
# platforms = 4 independent work units.  The request count is sized so
# the batch comfortably exceeds the executor's ~50 ms fork threshold on
# a fast runner — the point is to measure the *workers*, not the bypass.
SMOKE_KEYS = ("udp:64", "dpdk:64")
SMOKE_SAMPLES = 40
SMOKE_REQUESTS = 12_000


def test_fig4_parallel_speedup(benchmark):
    """--jobs must never change the rows, and must never slow things down.

    Warm-up runs populate the profile caches, which every batch's forked
    workers then inherit; both sides take the best of ``ROUNDS`` timed
    runs, so the recorded speedup compares steady states rather than
    one cold run against one warm one.  The executor's serial bypass
    means ``jobs=4`` on a single-core machine degrades to the serial
    path instead of paying fork overhead, so speedup >= ~1.0 must hold
    everywhere; the scaling claim (> 1) only applies with real cores.
    """
    ROUNDS = 5

    def compute(executor):
        configure(ResultCache())  # cold cache: measure simulation, not lookups
        return run_fig4(keys=SMOKE_KEYS, samples=SMOKE_SAMPLES,
                        n_requests=SMOKE_REQUESTS,
                        streams=RandomStreams(7), executor=executor)

    parallel_executor = ParallelExecutor(jobs=4)
    serial_executor = ParallelExecutor(jobs=1)
    compute(serial_executor)  # warm-up: profile caches, import costs
    # Warm-up + harness-visible timing for the parallel side (also seeds
    # the executor's work estimate).
    parallel_rows = benchmark.pedantic(compute, args=(parallel_executor,),
                                       rounds=1, iterations=1)
    # Interleave the timed rounds so slow clock drift (thermal, noisy CI
    # neighbors) hits both sides alike; take the best of each — the
    # steady-state cost, not the unluckiest run.
    serial_times, parallel_times = [], []
    for _ in range(ROUNDS):
        serial_times.append(_timed(compute, serial_executor))
        parallel_times.append(_timed(compute, parallel_executor))
    serial_seconds = min(serial_times)
    parallel_seconds = min(parallel_times)
    bypasses = parallel_executor.bypasses

    speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
    # The affinity-aware count: a pinned CI runner must not record the
    # machine's cores and then fail the scaling gate it can't reach.
    cores = usable_cpu_count()
    record_bench("fig4", "parallel_speedup", jobs=4, cores=cores,
                 rounds=ROUNDS, serial_seconds=serial_seconds,
                 parallel_seconds=parallel_seconds, speedup=speedup,
                 serial_bypasses=bypasses)

    serial_rows = compute(ParallelExecutor(jobs=1))
    # Identity holds on any machine, regardless of core count.
    assert len(parallel_rows) == len(serial_rows)
    for a, b in zip(serial_rows, parallel_rows):
        assert a.key == b.key
        assert a.host.throughput_rps == b.host.throughput_rps
        assert a.snic.throughput_rps == b.snic.throughput_rps
        assert a.host.metrics.latency_p99 == b.host.metrics.latency_p99
        assert a.snic.metrics.latency_p99 == b.snic.metrics.latency_p99
    if cores >= 2:
        # Parallelism (or, at worst, the bypass) must not cost wall-clock.
        assert speedup >= 1.0, (
            f"expected >=1.0x on {cores} cores, got {speedup:.2f}x")
    if cores >= 4:
        assert speedup >= 1.5, f"expected >=1.5x on {cores} cores, got {speedup:.2f}x"


def _timed(fn, *args):
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start
