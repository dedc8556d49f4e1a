#!/usr/bin/env python3
"""Quickstart: should you offload one function to the SmartNIC?

Measures a single benchmark function on the host CPU and on the SNIC
processor (CPU or accelerator, per Table 3), at each platform's maximum
sustainable throughput, and prints the paper's three verdict metrics:
throughput, p99 latency, and system-wide energy efficiency.

Usage::

    python examples/quickstart.py [function]    # default: rem:file_image

Try e.g. ``redis:a``, ``crypto:sha1``, ``compression:txt``, ``fio:read``.
"""

import sys

from repro.core.rng import RandomStreams
from repro.experiments.measurement import measure_operating_point
from repro.experiments.profiles import get_profile
from repro.experiments.fig4 import snic_platform_for


def efficiency(point) -> float:
    """Goodput per watt of server power (Gb/s/W)."""
    if point.server_power_w <= 0:
        return 0.0
    return point.goodput_gbps / point.server_power_w


def main() -> None:
    key = sys.argv[1] if len(sys.argv) > 1 else "rem:file_image"
    profile = get_profile(key, samples=200)
    snic_platform = snic_platform_for(profile)
    streams = RandomStreams(1)

    print(f"function : {profile.display} ({profile.notes})")
    print(f"stack    : {profile.stack or 'local'}; "
          f"SNIC platform: {snic_platform}\n")

    host = measure_operating_point(profile, "host", streams)
    snic = measure_operating_point(profile, snic_platform, streams)

    header = f"{'metric':<28} {'host CPU':>14} {'SNIC':>14} {'SNIC/host':>10}"
    print(header)
    print("-" * len(header))
    rows = [
        ("max throughput (req/s)", host.throughput_rps, snic.throughput_rps),
        ("goodput (Gb/s)", host.goodput_gbps, snic.goodput_gbps),
        ("p99 latency (us)", host.p99_latency_s * 1e6, snic.p99_latency_s * 1e6),
        ("server power (W)", host.server_power_w, snic.server_power_w),
        ("(S)NIC power (W)", host.device_power_w, snic.device_power_w),
        ("efficiency (Gb/s/W)", efficiency(host), efficiency(snic)),
    ]
    for label, host_value, snic_value in rows:
        ratio = snic_value / host_value if host_value else float("inf")
        print(f"{label:<28} {host_value:>14,.2f} {snic_value:>14,.2f} {ratio:>10.2f}")

    efficiency_ratio = (
        efficiency(snic) / efficiency(host) if efficiency(host) else float("inf")
    )
    print()
    if efficiency_ratio > 1.1:
        print(f"verdict: offloading {key} improves energy efficiency "
              f"{efficiency_ratio:.1f}x — a good SNIC candidate.")
    elif efficiency_ratio > 0.9:
        print(f"verdict: offloading {key} is roughly energy-neutral "
              f"({efficiency_ratio:.2f}x); decide on host-core savings.")
    else:
        print(f"verdict: keep {key} on the host — offloading costs "
              f"{1/efficiency_ratio:.1f}x in energy efficiency "
              "(Key Observation 5).")


if __name__ == "__main__":
    main()
