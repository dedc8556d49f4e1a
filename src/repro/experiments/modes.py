"""Operation-mode study (§2.3): on-path vs off-path delivery.

The paper runs everything on-path (the accelerators require it and
off-path support was discontinued), but the mode choice has a cost: every
host-bound packet traverses the SNIC CPU complex first.  This experiment
measures that tax on the packet-accurate testbed — the latency and
SNIC-CPU-occupancy difference between the two modes for host-terminated
traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..core.engine import Simulator
from ..testbed.eswitch import Destination, OperationMode
from ..testbed.server import (
    SnicServer,
    forward_all,
    reply_all,
    run_udp_echo_measurement,
)


@dataclass
class ModeResult:
    mode: str
    mean_rtt_s: float
    p99_rtt_s: float
    snic_cpu_packets: int  # packets that consumed SNIC CPU time


def _measure(mode: OperationMode, n_packets: int, interval_s: float) -> ModeResult:
    sim = Simulator()
    server = SnicServer(
        sim,
        snic_handler=forward_all,  # on-path: SNIC CPU forwards to host
        host_handler=reply_all,
        mode=mode,
        snic_service_s=1.5e-6,
        host_service_s=1.0e-6,
    )
    if mode is OperationMode.OFF_PATH:
        # the eSwitch steers host-addressed packets directly
        server.eswitch.map_address(2, Destination.HOST)
    measurement = run_udp_echo_measurement(
        sim, server, "host" if mode is OperationMode.ON_PATH else "host",
        n_packets, interval_s,
    )
    # run_udp_echo_measurement sets handlers for the on-path route; for
    # off-path the eSwitch bypasses the SNIC complex entirely, so its
    # handler assignment is moot.
    sim.run()
    return ModeResult(
        mode=mode.value,
        mean_rtt_s=measurement.latencies.mean(),
        p99_rtt_s=measurement.latencies.p99(),
        snic_cpu_packets=server.snic.stats.handled,
    )


def run_mode_study(n_packets: int = 400, interval_s: float = 20e-6) -> Dict[str, ModeResult]:
    """Measure host-terminated echo traffic under both modes."""
    return {
        mode.value: _measure(mode, n_packets, interval_s)
        for mode in (OperationMode.ON_PATH, OperationMode.OFF_PATH)
    }


def format_mode_study(results: Dict[str, ModeResult]) -> str:
    lines = [
        f"{'mode':<10} {'mean RTT us':>12} {'p99 RTT us':>12} {'SNIC-CPU pkts':>14}"
    ]
    for result in results.values():
        lines.append(
            f"{result.mode:<10} {result.mean_rtt_s*1e6:>12.2f} "
            f"{result.p99_rtt_s*1e6:>12.2f} {result.snic_cpu_packets:>14}"
        )
    on_path = results["on-path"]
    off_path = results["off-path"]
    tax = on_path.mean_rtt_s - off_path.mean_rtt_s
    lines.append(
        f"\non-path tax for host-bound traffic: +{tax*1e6:.2f} us mean RTT, "
        f"{on_path.snic_cpu_packets} packets through the SNIC CPU "
        f"(off-path: {off_path.snic_cpu_packets})"
    )
    return "\n".join(lines)


def _register() -> None:
    from .registry import DEGRADE_PARTIAL, Experiment, register, smoke_tier

    register(Experiment(
        name="modes",
        description="packet-accurate on-path vs off-path RTT and SNIC-CPU "
                    "occupancy for host-terminated echo traffic",
        # A few hundred packets through the event engine; the study is
        # already smoke-fast, so both tiers run it as-is.
        runner=lambda ctx: run_mode_study(),
        formatter=format_mode_study,
        to_json=lambda results: {
            mode: {"mean_rtt_s": r.mean_rtt_s, "p99_rtt_s": r.p99_rtt_s,
                   "snic_cpu_packets": r.snic_cpu_packets}
            for mode, r in results.items()
        },
        schema={
            "type": "object",
            "required": ["on-path", "off-path"],
            "properties": {
                mode: {
                    "type": "object",
                    "required": ["mean_rtt_s", "p99_rtt_s",
                                 "snic_cpu_packets"],
                    "properties": {
                        "mean_rtt_s": {"type": "number"},
                        "p99_rtt_s": {"type": "number"},
                        "snic_cpu_packets": {"type": "integer"},
                    },
                }
                for mode in ("on-path", "off-path")
            },
        },
        tiers=smoke_tier(),
        unit_granularity="one packet-level mode study",
        degradation=DEGRADE_PARTIAL,
    ))


_register()
