"""Figure 4: maximum sustainable throughput and p99 latency of the SNIC
processor, normalized to the host CPU, across all 13 functions.

Each row measures both platforms at their own saturation knees (the
paper's methodology, §4) and reports the SNIC/host ratios.  Functions
with an accelerator path (Table 3 column SA) use the accelerator as
their SNIC execution platform; the rest use the SNIC CPU.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core import hybrid
from ..core.executor import ParallelExecutor, WorkUnit, map_cached
from ..core.rng import RandomStreams
from .measurement import (
    ACCEL_PLATFORM,
    OPERATING_POINT_SCHEMA,
    OperatingPoint,
    compute_operating_point,
    operating_point_cache_key,
    operating_point_json,
)
from .profiles import FunctionProfile, get_profile
from .registry import Experiment, ExperimentContext, register, smoke_tier

logger = logging.getLogger("repro.fig4")

# Display order mirrors the paper's x-axis: microbenchmarks, software-only
# functions, then hardware-accelerated functions.
FIG4_KEYS = (
    "udp:64",
    "udp:1024",
    "dpdk:64",
    "dpdk:1024",
    "rdma:1024",
    "redis:a",
    "redis:b",
    "redis:c",
    "snort:file_image",
    "snort:file_flash",
    "snort:file_executable",
    "nat:10k",
    "nat:1m",
    "bm25:100",
    "bm25:1k",
    "mica:4",
    "mica:32",
    "fio:read",
    "fio:write",
    "ovs:10",
    "ovs:100",
    "crypto:aes",
    "crypto:rsa",
    "crypto:sha1",
    "rem:file_image",
    "rem:file_flash",
    "rem:file_executable",
    "compression:app",
    "compression:txt",
)


def snic_platform_for(profile: FunctionProfile) -> str:
    """The SNIC execution platform per Table 3 (accelerator if present)."""
    return ACCEL_PLATFORM if ACCEL_PLATFORM in profile.platforms else "snic-cpu"


@dataclass
class Fig4Row:
    key: str
    display: str
    category: str
    host: OperatingPoint
    snic: OperatingPoint

    @property
    def snic_platform(self) -> str:
        return self.snic.platform

    @property
    def throughput_ratio(self) -> float:
        if self.host.throughput_rps <= 0:
            return float("inf")
        return self.snic.throughput_rps / self.host.throughput_rps

    @property
    def p99_ratio(self) -> float:
        if self.host.p99_latency_s <= 0:
            return float("inf")
        return self.snic.p99_latency_s / self.host.p99_latency_s


def run_fig4(
    keys: Sequence[str] = FIG4_KEYS,
    samples: int = 300,
    n_requests: int = 20_000,
    streams: Optional[RandomStreams] = None,
    jobs: int = 1,
    executor: Optional[ParallelExecutor] = None,
    engine: Optional[str] = None,
) -> List[Fig4Row]:
    """Measure every function on both platforms; returns the figure rows.

    The ~2x29 operating-point measurements are mutually independent work
    units (each re-derives its RNG substreams from ``(seed, name)``), so
    ``jobs=N`` fans them across processes with element-wise identical
    output to ``jobs=1``.  Results are memoized through the global
    result cache, keyed on (profile, platform, fidelity, seed, engine);
    the probe engine is resolved here so workers never depend on an
    inherited process global.
    """
    streams = streams or RandomStreams()
    seed = streams.root_seed
    executor = executor or ParallelExecutor(jobs)
    engine = hybrid.resolve_engine(engine)

    pairs = [
        (key, get_profile(key, samples=samples))
        for key in keys
    ]
    units: List[WorkUnit] = []
    cache_keys: List[str] = []
    for key, profile in pairs:
        for platform in ("host", snic_platform_for(profile)):
            args = (key, platform, seed, samples, n_requests, None, engine)
            units.append(
                WorkUnit(name=f"fig4:{key}:{platform}",
                         fn=compute_operating_point, args=args)
            )
            cache_keys.append(operating_point_cache_key(*args))
    logger.info("fig4: measuring %d operating points (%d functions, jobs=%d)",
                len(units), len(pairs), executor.jobs)
    points = map_cached(executor, units, cache_keys)

    rows: List[Fig4Row] = []
    for index, (key, profile) in enumerate(pairs):
        host, snic = points[2 * index], points[2 * index + 1]
        rows.append(
            Fig4Row(
                key=key,
                display=profile.display,
                category=profile.category,
                host=host,
                snic=snic,
            )
        )
    return rows


def rows_by_key(rows: List[Fig4Row]) -> Dict[str, Fig4Row]:
    return {row.key: row for row in rows}


def fig4_row_json(row: Fig4Row) -> Dict[str, object]:
    return {
        "key": row.key,
        "display": row.display,
        "category": row.category,
        "snic_platform": row.snic_platform,
        "host": operating_point_json(row.host),
        "snic": operating_point_json(row.snic),
        "throughput_ratio": row.throughput_ratio,
        "p99_ratio": row.p99_ratio,
    }


FIG4_ROW_SCHEMA = {
    "type": "object",
    "required": ["key", "snic_platform", "host", "snic",
                 "throughput_ratio", "p99_ratio"],
    "properties": {
        "key": {"type": "string"},
        "snic_platform": {"type": "string"},
        "host": OPERATING_POINT_SCHEMA,
        "snic": OPERATING_POINT_SCHEMA,
        "throughput_ratio": {"type": ["number", "null"]},
        "p99_ratio": {"type": ["number", "null"]},
    },
}

# Smoke keys span every execution layer (UDP stack, kernel-stack KV,
# RDMA bypass, accelerator batch) *and* cover every key the observation
# checks index, so `observations --smoke` can resolve its fig4
# dependency against this subset.
FIG4_SMOKE_KEYS = (
    "udp:64",
    "redis:a",
    "mica:4",
    "mica:32",
    "fio:read",
    "fio:write",
    "crypto:aes",
    "crypto:rsa",
    "crypto:sha1",
    "rem:file_image",
    "rem:file_flash",
    "rem:file_executable",
    "compression:app",
    "compression:txt",
)


def _fig4_runner(ctx: ExperimentContext) -> List[Fig4Row]:
    fid = ctx.fidelity()
    kwargs = dict(samples=fid.samples, n_requests=fid.requests,
                  streams=ctx.streams, executor=ctx.executor,
                  engine=fid.engine)
    if fid.keys is not None:
        kwargs["keys"] = fid.keys
    return run_fig4(**kwargs)


def format_fig4(rows: List[Fig4Row]) -> str:
    """Render the figure as an aligned text table."""
    lines = [
        f"{'function':<24} {'plat':<10} {'host rps':>12} {'snic rps':>12} "
        f"{'T ratio':>8} {'host p99us':>11} {'snic p99us':>11} {'L ratio':>8}"
    ]
    for row in rows:
        lines.append(
            f"{row.display:<24} {row.snic_platform:<10} "
            f"{row.host.throughput_rps:>12,.0f} {row.snic.throughput_rps:>12,.0f} "
            f"{row.throughput_ratio:>8.2f} "
            f"{row.host.p99_latency_s * 1e6:>11.1f} "
            f"{row.snic.p99_latency_s * 1e6:>11.1f} "
            f"{row.p99_ratio:>8.2f}"
        )
    return "\n".join(lines)


def _fig4_chart(rows: List[Fig4Row]) -> str:
    from ..analysis.plots import fig4_chart

    return fig4_chart(rows)


def _write_fig4_csv(stream, rows: List[Fig4Row]) -> int:
    from ..analysis.export import write_fig4_csv

    return write_fig4_csv(stream, rows)


register(Experiment(
    name="fig4",
    description="maximum sustainable throughput and p99 latency of every "
                "function on both platforms, with SNIC/host ratios",
    runner=_fig4_runner,
    formatter=format_fig4,
    chart=_fig4_chart,
    csv_writer=_write_fig4_csv,
    to_json=lambda rows: [fig4_row_json(row) for row in rows],
    schema={"type": "array", "minItems": 1, "items": FIG4_ROW_SCHEMA},
    tiers=smoke_tier(keys=FIG4_SMOKE_KEYS),
    # Load-bearing: fig6, table5, the observations, and the report all
    # consume these rows — a quarantined probe must abort, not degrade.
    unit_granularity="one (function, platform) capacity probe",
))
