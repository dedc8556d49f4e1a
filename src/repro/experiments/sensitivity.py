"""Future-SNIC sensitivity study.

Key Observation 4 speculates: "If the SNIC CPU becomes more powerful in
the future, it may outperform the host CPU for certain input and batch
sizes."  This study makes that quantitative: sweep hypothetical SNIC
designs (more cores, faster cores, better memory, deeper stack offload,
faster engines) and report where each Fig. 4 conclusion flips.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from .. import calibration
from ..core import hybrid
from ..core.executor import ParallelExecutor, WorkUnit, map_cached
from ..core.rng import RandomStreams
from .fig4 import snic_platform_for
from .measurement import (
    compute_operating_point,
    measure_operating_point,
    operating_point_cache_key,
)
from .profiles import get_profile
from .registry import (
    DEGRADE_PARTIAL,
    Experiment,
    ExperimentContext,
    register,
    smoke_tier,
)


@dataclass(frozen=True)
class SnicDesign:
    """A hypothetical future SmartNIC."""

    name: str
    core_count_scale: float = 1.0  # 2.0 = 16 Arm cores
    frequency_scale: float = 1.0  # 1.25 = 2.5 GHz
    memory_scale: float = 1.0  # cuts memory-bound work-unit cycles
    engine_rate_scale: float = 1.0  # faster REM/compression engines

    def __post_init__(self):
        for value in (self.core_count_scale, self.frequency_scale,
                      self.memory_scale, self.engine_rate_scale):
            if value <= 0:
                raise ValueError("scales must be positive")


TODAY = SnicDesign("bluefield-2")
NEXT_GEN = SnicDesign("next-gen", core_count_scale=2.0, frequency_scale=1.25,
                      memory_scale=1.6)
ENGINE_UPGRADE = SnicDesign("line-rate-engines", engine_rate_scale=2.2)
ALL_IN = SnicDesign("all-in", core_count_scale=2.0, frequency_scale=1.25,
                    memory_scale=1.6, engine_rate_scale=2.2)

DESIGNS = (TODAY, NEXT_GEN, ENGINE_UPGRADE, ALL_IN)

_MEMORY_BOUND_KINDS = (
    "mem_stream_byte", "mem_random_access", "hash_probe", "kv_value_byte",
    "kv_value_byte_cold", "nat_lookup_cold",
)


def _apply_design(design: SnicDesign) -> None:
    base = calibration.SNIC_CPU
    work = dict(base.work_cycles)
    for kind in _MEMORY_BOUND_KINDS:
        work[kind] = work[kind] / design.memory_scale
    calibration.PLATFORMS["snic-cpu"] = replace(
        base,
        cores=int(round(base.cores * design.core_count_scale)),
        frequency_hz=base.frequency_hz * design.frequency_scale,
        work_cycles=work,
    )
    engines = {}
    for name, engine in calibration.ACCELERATORS.items():
        engines[name] = replace(
            engine,
            bytes_per_s={k: v * design.engine_rate_scale
                         for k, v in engine.bytes_per_s.items()},
            ops_per_s={k: v * design.engine_rate_scale
                       for k, v in engine.ops_per_s.items()},
        )
    calibration.ACCELERATORS.clear()
    calibration.ACCELERATORS.update(engines)


@dataclass
class SensitivityRow:
    key: str
    design: str
    ratio: float  # SNIC/host max throughput


def _snic_point_under_design(
    key: str,
    design: SnicDesign,
    salt: int,
    seed: int,
    samples: int,
    n_requests: int,
    engine: Optional[str] = None,
) -> float:
    """Picklable work unit: SNIC throughput under a hypothetical design.

    Applies the design to the global calibration for the duration of the
    measurement and always restores it (workers keep module state across
    units).  Substreams rebuild from ``(seed, salt)`` exactly as the
    serial loop's ``streams.fork(salt)`` derived them.
    """
    profile = get_profile(key, samples=samples)
    original_platform = calibration.PLATFORMS["snic-cpu"]
    original_engines = dict(calibration.ACCELERATORS)
    _apply_design(design)
    try:
        point = measure_operating_point(
            profile, snic_platform_for(profile), RandomStreams(seed).fork(salt),
            n_requests, engine=engine,
        )
    finally:
        calibration.PLATFORMS["snic-cpu"] = original_platform
        calibration.ACCELERATORS.clear()
        calibration.ACCELERATORS.update(original_engines)
    return point.throughput_rps


def run_sensitivity(
    keys: Sequence[str] = ("redis:a", "mica:32", "bm25:1k",
                           "rem:file_executable", "compression:txt"),
    designs: Sequence[SnicDesign] = DESIGNS,
    samples: int = 150,
    n_requests: int = 8_000,
    streams: Optional[RandomStreams] = None,
    executor: Optional[ParallelExecutor] = None,
    engine: Optional[str] = None,
) -> List[SensitivityRow]:
    """Sweep hypothetical SNIC designs over representative functions.

    Host baselines go through the content-addressed operating-point
    cache; each (key, design) what-if is an independent work unit fanned
    through ``executor`` with output identical to the serial run.
    """
    streams = streams or RandomStreams(41)
    seed = streams.root_seed
    executor = executor or ParallelExecutor(1)
    engine = hybrid.resolve_engine(engine)

    host_args = [(key, "host", seed, samples, n_requests, None, engine)
                 for key in keys]
    host_points = map_cached(
        executor,
        [WorkUnit(name=f"sensitivity:{key}:host", fn=compute_operating_point,
                  args=args) for key, args in zip(keys, host_args)],
        [operating_point_cache_key(*args) for args in host_args],
    )
    snic_units = [
        WorkUnit(
            name=f"sensitivity:{key}:{design.name}",
            fn=_snic_point_under_design,
            args=(key, design, 100 + index, seed, samples, n_requests,
                  engine),
        )
        for key in keys
        for index, design in enumerate(designs)
    ]
    snic_rps = executor.map(snic_units)

    rows: List[SensitivityRow] = []
    cell = 0
    for key, host in zip(keys, host_points):
        for design in designs:
            rows.append(
                SensitivityRow(
                    key=key,
                    design=design.name,
                    ratio=snic_rps[cell] / max(host.throughput_rps, 1e-9),
                )
            )
            cell += 1
    return rows


def rows_by_design(rows: List[SensitivityRow]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for row in rows:
        out.setdefault(row.design, {})[row.key] = row.ratio
    return out


def format_sensitivity(rows: List[SensitivityRow]) -> str:
    by_design = rows_by_design(rows)
    keys = sorted({row.key for row in rows})
    names = [d.name for d in DESIGNS if d.name in by_design]
    header = f"{'function':<24}" + "".join(f"{n:>20}" for n in names)
    lines = [header, "-" * len(header)]
    for key in keys:
        cells = "".join(f"{by_design[n].get(key, float('nan')):>20.2f}" for n in names)
        flip = any(by_design[n].get(key, 0) > 1.0 for n in names[1:]) and by_design[
            names[0]
        ].get(key, 2) < 1.0
        lines.append(f"{key:<24}" + cells + ("   << flips" if flip else ""))
    lines.append("\n(cells: SNIC/host max-throughput ratio; >1 means the SNIC wins)")
    return "\n".join(lines)


def _sensitivity_runner(ctx: ExperimentContext) -> List[SensitivityRow]:
    fid = ctx.fidelity()
    return run_sensitivity(samples=fid.samples, n_requests=fid.requests,
                           streams=ctx.streams, executor=ctx.executor,
                           engine=fid.engine)


register(Experiment(
    name="sensitivity",
    description="hypothetical SNIC designs (more/faster cores, better "
                "memory, faster engines) swept over representative keys",
    runner=_sensitivity_runner,
    formatter=format_sensitivity,
    to_json=lambda rows: [
        {"key": r.key, "design": r.design, "ratio": r.ratio} for r in rows
    ],
    schema={
        "type": "array",
        "minItems": 1,
        "items": {
            "type": "object",
            "required": ["key", "design", "ratio"],
            "properties": {
                "key": {"type": "string"},
                "design": {"type": "string"},
                "ratio": {"type": ["number", "null"]},
            },
        },
    },
    tiers=smoke_tier(),
    unit_granularity="one (key, hypothetical-design) probe",
    degradation=DEGRADE_PARTIAL,
))
