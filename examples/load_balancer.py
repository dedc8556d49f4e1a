#!/usr/bin/env python3
"""Strategy 3: host/SNIC load balancing, CPU-based vs hardware.

The paper's preliminary investigation found that a load balancer running
on the BlueField-2 CPU "consumes most of the SNIC CPU cycles simply to
monitor packets at high rates and cannot redirect packets fast enough to
meet SLO constraints".  This example sweeps offered load over both
implementations and prints where each one breaks.

Usage::

    python examples/load_balancer.py
"""

import numpy as np

from repro.offload.loadbalancer import BalancerConfig, simulate_balancer

SNIC_SERVICE_S = 1.2e-6  # accelerator-path per-packet time
HOST_SERVICE_S = 0.7e-6  # host fallback per-packet time
SLO_P99_S = 100e-6


def main() -> None:
    rates = [2e6, 4e6, 6e6, 8e6, 10e6, 12e6]
    configs = {
        # ~600 cycles of per-packet monitoring on the 2 GHz A72s, and
        # telemetry 100 us stale.
        "snic-cpu balancer": BalancerConfig(
            SNIC_SERVICE_S, HOST_SERVICE_S,
            monitor_cost_s=600 / 2.0e9, reaction_delay_s=100e-6),
        # Free monitoring, immediate reaction (BalancerConfig's defaults).
        "hardware balancer": BalancerConfig(SNIC_SERVICE_S, HOST_SERVICE_S),
    }

    print(f"SLO: p99 <= {SLO_P99_S*1e6:.0f} us\n")
    header = (
        f"{'offered (Mpps)':>14} | "
        + " | ".join(f"{name:^38}" for name in configs)
    )
    sub = (
        f"{'':>14} | "
        + " | ".join(f"{'p99us':>8} {'host%':>6} {'loss%':>6} {'mon.util':>8}    "
                     for _ in configs)
    )
    print(header)
    print(sub)
    print("-" * len(sub))

    violations = {name: None for name in configs}
    for rate in rates:
        cells = []
        for name, config in configs.items():
            n_packets = 50_000
            outcome = simulate_balancer(
                config, rate, n_packets, np.random.default_rng(int(rate))
            )
            host_fraction = outcome.sent_to_host / (
                outcome.sent_to_snic + outcome.sent_to_host)
            flag = " " if outcome.p99_latency_s <= SLO_P99_S else "!"
            if flag == "!" and violations[name] is None:
                violations[name] = rate
            cells.append(
                f"{outcome.p99_latency_s*1e6:>8.1f} {host_fraction:>6.1%} "
                f"{outcome.dropped / n_packets:>6.2%} {outcome.snic_monitor_utilization:>8.1%} {flag}  "
            )
        print(f"{rate/1e6:>14.0f} | " + " | ".join(cells))

    print()
    for name, rate in violations.items():
        if rate is None:
            print(f"{name}: meets the SLO at every tested rate")
        else:
            print(f"{name}: first SLO violation at {rate/1e6:.0f} Mpps")
    print(
        "\nThe CPU-based balancer burns SNIC cores on monitoring and reacts "
        "late, so it violates the SLO well before the hardware design — "
        "the paper's case for hardware-assisted balancing (§5.3)."
    )


if __name__ == "__main__":
    main()
