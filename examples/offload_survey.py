#!/usr/bin/env python3
"""Offload survey: Fig. 4 for a function portfolio + predicted placements.

Walks a portfolio of datacenter functions (the paper's Table 3), measures
host-vs-SNIC operating points, and asks the Strategy-2 analytic predictor
which SNIC platforms sustain each function's rate under a latency SLO —
the decision workflow the paper argues operators need.

Usage::

    python examples/offload_survey.py [slo_p99_us]    # default 500 us
"""

import sys

from repro.core.rng import RandomStreams
from repro.experiments.fig4 import run_fig4
from repro.experiments.profiles import get_profile
from repro.offload.advisor import predict_platform

PORTFOLIO = (
    "redis:a",
    "nat:10k",
    "bm25:1k",
    "mica:32",
    "fio:read",
    "crypto:sha1",
    "rem:file_image",
    "rem:file_executable",
    "compression:txt",
)


def main() -> None:
    slo_us = float(sys.argv[1]) if len(sys.argv) > 1 else 500.0
    slo = slo_us * 1e-6
    print(f"measuring {len(PORTFOLIO)} functions (SLO: p99 <= {slo_us:.0f} us)\n")

    rows = run_fig4(keys=PORTFOLIO, samples=200, n_requests=10_000,
                    streams=RandomStreams(4))

    header = (
        f"{'function':<22} {'T ratio':>8} {'p99 ratio':>9} "
        f"{'placement'}"
    )
    print(header)
    print("-" * 60)
    offloaded = 0
    for row in rows:
        # Offload to the highest-capacity SNIC platform the predictor says
        # sustains half the host's capacity with its latency floor inside
        # the SLO: that frees host cores, the datacenter-tax argument.
        profile = get_profile(row.key, samples=200)
        predictions = [predict_platform(profile, platform)
                       for platform in profile.platforms if platform != "host"]
        feasible = [p for p in predictions
                    if p.capacity_rps >= 0.5 * row.host.capacity_rps
                    and p.base_p99_s <= slo]
        placement = (max(feasible, key=lambda p: p.capacity_rps).platform
                     if feasible else "host")
        if placement != "host":
            offloaded += 1
        print(
            f"{row.display:<22} {row.throughput_ratio:>8.2f} "
            f"{row.p99_ratio:>9.2f} {placement}"
        )

    print(
        f"\n{offloaded}/{len(rows)} functions offloaded at this SLO. "
        "Tighten it (e.g. 30 us) and accelerator batching latency starts "
        "disqualifying candidates — Key Observation 4 in action."
    )


if __name__ == "__main__":
    main()
