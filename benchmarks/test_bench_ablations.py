"""Ablation benchmarks for the design choices DESIGN.md calls out.

Each ablation perturbs one model mechanism and shows the paper-relevant
consequence — these are the "why is the model built this way" studies.
"""

import numpy as np
from conftest import run_once

from repro.core.rng import RandomStreams
from repro.core.queueing import outcome_to_metrics, simulate_batch_server
from repro.experiments.profiles import get_profile
from repro.experiments.measurement import ACCEL_PLATFORM, measure_operating_point
from repro.offload.loadbalancer import BalancerConfig, simulate_balancer


def test_ablation_accelerator_batching(benchmark):
    """KO3 mechanics: batch amortization sets the accelerator's capacity;
    without batching the engine would be setup-bound far below 50 Gb/s."""

    def sweep():
        rng = np.random.default_rng(0)
        results = {}
        for batch in (1, 4, 16, 64):
            outcome = simulate_batch_server(
                rate=2e6, n_requests=20_000, rng=rng, batch_size=batch,
                batch_timeout=15e-6, setup_time=2.5e-6, per_item_time=0.21e-6,
            )
            metrics = outcome_to_metrics(outcome, 2e6, bytes_per_request=1534)
            results[batch] = metrics.completed_rate * 1534 * 8 / 1e9
        return results

    results = run_once(benchmark, sweep)
    print(f"\naccelerator goodput vs batch size (Gb/s): "
          + ", ".join(f"{b}->{g:.1f}" for b, g in results.items()))
    assert results[64] > 2.5 * results[1]


def test_ablation_staging_cores(benchmark, streams):
    """§3.4: two SNIC CPU cores stage REM buffers; one is not enough at
    MTU rates to keep the engine fed."""
    from dataclasses import replace

    from repro.calibration import ACCELERATORS

    def sweep():
        profile = get_profile("rem:file_executable@mtu", samples=100)
        base = ACCELERATORS["rem"]
        results = {}
        for cores in (1, 2, 4):
            ACCELERATORS["rem"] = replace(base, staging_cores=cores)
            try:
                point = measure_operating_point(
                    profile, ACCEL_PLATFORM, RandomStreams(17), 8000
                )
                results[cores] = point.goodput_gbps
            finally:
                ACCELERATORS["rem"] = base
        return results

    results = run_once(benchmark, sweep)
    print("\nREM accel goodput vs staging cores (Gb/s): "
          + ", ".join(f"{c}->{g:.1f}" for c, g in results.items()))
    assert results[2] >= results[1]


def test_ablation_load_balancer_threshold(benchmark):
    """Strategy 3: the redirect threshold trades SNIC residency for tail
    latency."""

    def sweep():
        rng_seed = 3
        results = {}
        for threshold in (10e-6, 50e-6, 200e-6):
            config = BalancerConfig(1.2e-6, 0.7e-6,
                                    redirect_threshold_s=threshold)
            outcome = simulate_balancer(config, 8e6, 40_000,
                                        np.random.default_rng(rng_seed))
            host_fraction = outcome.sent_to_host / (
                outcome.sent_to_snic + outcome.sent_to_host)
            results[threshold] = (host_fraction, outcome.p99_latency_s)
        return results

    results = run_once(benchmark, sweep)
    print("\nthreshold -> (host fraction, p99 us): " + ", ".join(
        f"{t*1e6:.0f}us->({h:.2f}, {p*1e6:.0f})" for t, (h, p) in results.items()
    ))
    fractions = [h for h, _ in results.values()]
    assert fractions == sorted(fractions, reverse=True)


def test_ablation_monitoring_cost(benchmark):
    """Strategy 3: sweeping the per-packet monitoring cost shows where a
    CPU-based balancer stops being viable."""

    def sweep():
        results = {}
        for cycles in (0, 300, 600, 1200):
            config = BalancerConfig(1.2e-6, 0.7e-6,
                                    monitor_cost_s=cycles / 2.0e9,
                                    reaction_delay_s=100e-6)
            outcome = simulate_balancer(config, 9e6, 40_000,
                                        np.random.default_rng(5))
            results[cycles] = outcome.p99_latency_s
        return results

    results = run_once(benchmark, sweep)
    print("\nmonitor cycles -> p99 us: " + ", ".join(
        f"{c}->{p*1e6:.0f}" for c, p in results.items()
    ))
    assert results[1200] > results[0]


def test_ablation_kernel_stack_share(benchmark, streams):
    """KO1 mechanics: the SNIC's Redis deficit is the TCP stack, not the
    KV work — with the stack cost removed (DPDK-style user stack), the
    gap shrinks dramatically."""
    from dataclasses import replace

    def sweep():
        profile = get_profile("redis:a", samples=100)
        kernel = {
            p: measure_operating_point(profile, p, RandomStreams(19), 8000)
            for p in ("host", "snic-cpu")
        }
        user_stack = replace(profile, key="redis:a-userstack", stack="dpdk")
        user = {
            p: measure_operating_point(user_stack, p, RandomStreams(23), 8000)
            for p in ("host", "snic-cpu")
        }
        return {
            "kernel": kernel["snic-cpu"].throughput_rps / kernel["host"].throughput_rps,
            "user": user["snic-cpu"].throughput_rps / user["host"].throughput_rps,
        }

    results = run_once(benchmark, sweep)
    print(f"\nRedis SNIC/host throughput ratio: kernel stack "
          f"{results['kernel']:.2f} vs user-level stack {results['user']:.2f}")
    assert results["user"] > 2.5 * results["kernel"]
