"""Table 4 and Figure 7: replaying the hyperscaler trace through REM.

The trace averages 0.76 Gb/s (Fig. 7); both platforms sustain it, but the
accelerator's batching adds ~3x p99 latency, and offloading saves only a
handful of watts because the server's idle power dominates (§5.1) — the
SLO-vs-TCO tension in one table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..core.cache import cache_key, get_cache
from ..core.executor import ParallelExecutor, WorkUnit
from ..core.rng import RandomStreams
from ..core.units import gbps_to_bytes_per_second
from ..power.models import ServerPowerModel
from ..workloads.traces import RateTrace, hyperscaler_trace
from .measurement import (
    ACCEL_PLATFORM,
    component_load,
    run_fixed_rate,
)
from .profiles import get_profile
from .registry import Experiment, ExperimentContext, register, smoke_tier


@dataclass
class Table4Cell:
    platform: str
    throughput_gbps: float
    p99_latency_us: float
    average_power_w: float


@dataclass
class Table4Result:
    host: Table4Cell
    snic: Table4Cell
    trace_average_gbps: float

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        return {
            cell.platform: {
                "throughput_gbps": cell.throughput_gbps,
                "p99_latency_us": cell.p99_latency_us,
                "average_power_w": cell.average_power_w,
            }
            for cell in (self.host, self.snic)
        }


def _measure_platform(
    profile, platform: str, trace: RateTrace, streams: RandomStreams,
    n_requests: int,
) -> Table4Cell:
    """Replay the trace: weight fixed-rate runs by the trace's rate mix.

    The trace is bucketed into rate bins; each bin contributes its time
    share to throughput/power and its packet share to the latency mix —
    equivalent to a full replay at far lower cost.
    """
    bins = np.percentile(trace.gbps, [10, 30, 50, 70, 90, 99])
    rates_gbps = np.unique(np.round(bins, 3))
    # Assign each trace interval to its nearest bin; the bin weight is the
    # fraction of trace time it represents.
    assignment = np.argmin(np.abs(trace.gbps[:, None] - rates_gbps[None, :]), axis=1)
    weights = np.array(
        [np.mean(assignment == index) for index in range(len(rates_gbps))]
    )
    weights = np.maximum(weights, 1e-9)
    weights = weights / weights.sum()
    cells = []
    for gbps in rates_gbps:
        rate = gbps_to_bytes_per_second(float(gbps)) / profile.wire_bytes
        metrics = run_fixed_rate(profile, platform, rate, streams, n_requests)
        cells.append(metrics)
    throughput = float(sum(w * m.goodput_gbps for w, m in zip(weights, cells)))
    # p99 of the pooled latency mix ~ weighted by packet share
    packet_weights = weights * np.array([m.completed_rate for m in cells])
    packet_weights = packet_weights / packet_weights.sum()
    p99 = float(sum(w * m.latency_p99 for w, m in zip(packet_weights, cells)))
    mean_rate = float(sum(w * m.completed_rate for w, m in zip(weights, cells)))
    load = component_load(profile, platform, mean_rate)
    power = ServerPowerModel().power(load)
    return Table4Cell(
        platform=platform,
        throughput_gbps=throughput,
        p99_latency_us=p99 * 1e6,
        average_power_w=power,
    )


def run_table4(
    trace: Optional[RateTrace] = None,
    samples: int = 200,
    n_requests: int = 8_000,
    streams: Optional[RandomStreams] = None,
    executor: Optional[ParallelExecutor] = None,
) -> Table4Result:
    """REM on the hyperscaler trace: host CPU vs SNIC accelerator.

    Default-trace replays are memoized on (fidelity, seed) — the report
    generator and Table 5 both need this result, and it is a pure
    function of those inputs (all substreams derive from the root seed).
    The two platform replays are independent work units, so a shared
    ``executor`` fans them out with output identical to the serial run.
    """
    streams = streams or RandomStreams()
    if trace is not None:
        return _compute_table4(trace, samples, n_requests, streams, executor)
    store = get_cache()
    key = cache_key("table4", samples, n_requests, streams.root_seed)
    found, result = store.get(key)
    if found:
        return result
    result = _compute_table4(
        hyperscaler_trace(), samples, n_requests,
        RandomStreams(streams.root_seed), executor,
    )
    store.put(key, result)
    return result


def _compute_platform_cell(
    platform: str, trace: RateTrace, samples: int, n_requests: int, seed: int
) -> Table4Cell:
    """Picklable work unit: one platform's trace replay.

    Rebuilds the profile and a fresh ``RandomStreams(seed)``; every rate
    bin derives its substream from ``(seed, key:platform:rate)``, so the
    cell is independent of which process computes it.
    """
    profile = get_profile("rem:file_executable@mtu", samples=samples)
    return _measure_platform(profile, platform, trace, RandomStreams(seed),
                             n_requests)


def _compute_table4(
    trace: RateTrace,
    samples: int,
    n_requests: int,
    streams: RandomStreams,
    executor: Optional[ParallelExecutor] = None,
) -> Table4Result:
    executor = executor or ParallelExecutor(1)
    units = [
        WorkUnit(name=f"table4:{platform}", fn=_compute_platform_cell,
                 args=(platform, trace, samples, n_requests,
                       streams.root_seed))
        for platform in ("host", ACCEL_PLATFORM)
    ]
    host, snic = executor.map(units)
    host.platform, snic.platform = "host", "snic"
    return Table4Result(host=host, snic=snic, trace_average_gbps=trace.average_gbps())


def format_table4(result: Table4Result) -> str:
    lines = [
        f"{'':<22} {'Host Processing':>16} {'SNIC Processing':>16}",
        f"{'Throughput (Gb/s)':<22} {result.host.throughput_gbps:>16.2f} "
        f"{result.snic.throughput_gbps:>16.2f}",
        f"{'p99 Latency (us)':<22} {result.host.p99_latency_us:>16.2f} "
        f"{result.snic.p99_latency_us:>16.2f}",
        f"{'Average Power (W)':<22} {result.host.average_power_w:>16.2f} "
        f"{result.snic.average_power_w:>16.2f}",
    ]
    return "\n".join(lines)


def _table4_runner(ctx: ExperimentContext) -> Table4Result:
    fid = ctx.fidelity()
    return run_table4(samples=fid.samples, n_requests=fid.requests,
                      streams=ctx.streams, executor=ctx.executor)


_TABLE4_CELL_SCHEMA = {
    "type": "object",
    "required": ["throughput_gbps", "p99_latency_us", "average_power_w"],
    "properties": {
        "throughput_gbps": {"type": "number"},
        "p99_latency_us": {"type": "number"},
        "average_power_w": {"type": "number"},
    },
}

register(Experiment(
    name="table4",
    description="host CPU vs SNIC accelerator sustaining the Fig. 7 "
                "trace: throughput, p99 latency, and average power",
    runner=_table4_runner,
    formatter=format_table4,
    to_json=lambda result: {
        "cells": result.as_dict(),
        "trace_average_gbps": result.trace_average_gbps,
    },
    schema={
        "type": "object",
        "required": ["cells", "trace_average_gbps"],
        "properties": {
            "cells": {
                "type": "object",
                "required": ["host", "snic"],
                "properties": {"host": _TABLE4_CELL_SCHEMA,
                               "snic": _TABLE4_CELL_SCHEMA},
            },
            "trace_average_gbps": {"type": "number"},
        },
    },
    tiers=smoke_tier(),
    unit_granularity="one platform's full trace replay",
))
