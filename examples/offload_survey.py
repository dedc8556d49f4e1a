#!/usr/bin/env python3
"""Offload survey: Fig. 4 for a function portfolio + advisor placements.

Walks a portfolio of datacenter functions (the paper's Table 3), measures
host-vs-SNIC operating points, and asks the Strategy-2 advisor where each
function should run under a latency SLO — the decision workflow the paper
argues operators need.

Usage::

    python examples/offload_survey.py [slo_p99_us]    # default 500 us
"""

import sys

from repro.core.rng import RandomStreams
from repro.experiments.fig4 import run_fig4
from repro.experiments.profiles import get_profile
from repro.offload import recommend

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
        f"{'advisor placement':<14} {'reason'}"
    )
    print(header)
    print("-" * 100)
    offloaded = 0
    for row in rows:
        decision = recommend(
            get_profile(row.key, samples=200),
            required_rps=0.5 * row.host.capacity_rps,
            slo_p99=slo,
        )
        if decision.platform != "host":
            offloaded += 1
        print(
            f"{row.display:<22} {row.throughput_ratio:>8.2f} "
            f"{row.p99_ratio:>9.2f} {decision.platform:<14} {decision.reason}"
        )

    print(
        f"\n{offloaded}/{len(rows)} functions offloaded at this SLO. "
        "Tighten it (e.g. 30 us) and accelerator batching latency starts "
        "disqualifying candidates — Key Observation 4 in action."
    )


if __name__ == "__main__":
    main()
