#!/usr/bin/env python3
"""The SLO-vs-TCO story (§5): replay a hyperscaler trace through REM.

Reproduces the paper's closing argument end to end:

1. synthesize the Fig. 7 network trace (0.76 Gb/s average, bursty),
2. replay it through the REM function on the host CPU and on the SNIC
   accelerator (Table 4),
3. roll the measured power into the 5-year fleet TCO (Table 5's REM
   column) — and show why the SNIC loses money here despite drawing
   less power, unless the application can tolerate ~3x the p99.

Usage::

    python examples/trace_replay.py
"""

from repro.analysis.tco import compare, format_comparison
from repro.core.rng import RandomStreams
from repro.experiments.fig7 import format_fig7, run_fig7
from repro.experiments.table4 import format_table4, run_table4


def main() -> None:
    print("=== Fig. 7: the trace ===")
    fig7 = run_fig7(duration_s=3600.0)
    print(format_fig7(fig7))

    print("\n=== Table 4: replaying it through REM ===")
    table4 = run_table4(samples=200, n_requests=10_000, streams=RandomStreams(2))
    print(format_table4(table4))

    p99_penalty = table4.snic.p99_latency_us / table4.host.p99_latency_us
    power_saving = 1 - table4.snic.average_power_w / table4.host.average_power_w
    print(f"\noffloading verdict at trace load: p99 {p99_penalty:.1f}x worse, "
          f"power only {power_saving:.0%} lower (idle dominates, KO5)")

    print("\n=== Table 5 (REM column): 5-year TCO ===")
    comparison = compare(
        "REM",
        snic_power_w=table4.snic.average_power_w,
        nic_power_w=table4.host.average_power_w,
        throughput_ratio_snic_over_host=1.0,
    )
    print(format_comparison([comparison]))
    if comparison.savings_fraction < 0:
        print(
            f"\nthe SNIC's ${comparison.snic_fleet.server_cost_usd - comparison.nic_fleet.server_cost_usd:,.0f} "
            "purchase premium is never recovered at datacenter trace loads — "
            "and the application also eats the p99 hit. This is the paper's "
            "REM conclusion (§5.1-5.2)."
        )


if __name__ == "__main__":
    main()
