"""Strategy 1 (§5.3): what if the SNIC offloaded its TCP/UDP stack?

Key Observation 1 blames the SNIC CPU's kernel-stack cycles for its
losses on TCP/UDP functions; Strategy 1 proposes hardware stack offload
(the FlexTOE / AccelTCP line of work).  This what-if re-prices the SNIC's
stack under partial offload — a fraction of per-packet stack cycles moves
to NIC hardware and the softirq serialization relaxes — and re-measures
the Fig. 4 points, quantifying how much of the gap Strategy 1 recovers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence

from .. import calibration
from ..core import hybrid
from ..core.executor import ParallelExecutor, WorkUnit, map_cached
from ..core.rng import RandomStreams
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

DEFAULT_KEYS = ("udp:64", "redis:a", "nat:10k", "bm25:1k", "snort:file_executable")


@dataclass
class OffloadScenario:
    """One point on the stack-offload spectrum."""

    name: str
    # Fraction of per-packet kernel-stack cycles moved into NIC hardware.
    cycles_offloaded: float
    # Restored parallel efficiency (hardware dispatch removes the softirq
    # serialization that capped the A72s).
    parallel_efficiency: float

    def __post_init__(self):
        if not 0.0 <= self.cycles_offloaded < 1.0:
            raise ValueError("cycles_offloaded must be in [0, 1)")
        if not 0.0 < self.parallel_efficiency <= 1.0:
            raise ValueError("parallel_efficiency must be in (0, 1]")


BASELINE = OffloadScenario("today", 0.0, 0.30)
# AccelTCP-style: connection setup/teardown + segmentation in hardware.
PARTIAL = OffloadScenario("partial-offload", 0.45, 0.60)
# FlexTOE-style: the full datapath decomposed onto NIC engines.
AGGRESSIVE = OffloadScenario("datapath-offload", 0.75, 0.90)

SCENARIOS = (BASELINE, PARTIAL, AGGRESSIVE)


@dataclass
class Strategy1Row:
    key: str
    scenario: str
    snic_throughput_rps: float
    host_throughput_rps: float

    @property
    def ratio(self) -> float:
        if self.host_throughput_rps <= 0:
            return float("inf")
        return self.snic_throughput_rps / self.host_throughput_rps


def _snic_with_offload(scenario: OffloadScenario) -> calibration.PlatformCalibration:
    """A SNIC CPU calibration with the scenario's stack re-pricing."""
    base = calibration.SNIC_CPU
    stacks = dict(base.stacks)
    for name in ("udp", "tcp"):
        cost = stacks[name]
        stacks[name] = replace(
            cost,
            per_packet_cycles=cost.per_packet_cycles * (1 - scenario.cycles_offloaded),
            per_byte_cycles=cost.per_byte_cycles * (1 - scenario.cycles_offloaded),
            parallel_efficiency=scenario.parallel_efficiency,
        )
    return replace(base, stacks=stacks)


def _snic_point_under_offload(
    key: str,
    scenario: OffloadScenario,
    salt: int,
    seed: int,
    samples: int,
    n_requests: int,
    engine: Optional[str] = None,
) -> float:
    """Picklable work unit: SNIC throughput with the scenario applied.

    Swaps the SNIC CPU calibration for the duration of the measurement
    and always restores it — required both for the in-process serial
    path and for forked workers, whose module state persists across
    the units of a batch.  RNG substreams rebuild from ``(seed, salt)`` exactly as the
    serial loop's ``streams.fork(salt)`` derived them.
    """
    profile = get_profile(key, samples=samples)
    original = calibration.PLATFORMS["snic-cpu"]
    calibration.PLATFORMS["snic-cpu"] = _snic_with_offload(scenario)
    try:
        point = measure_operating_point(
            profile, "snic-cpu", RandomStreams(seed).fork(salt), n_requests,
            engine=engine,
        )
    finally:
        calibration.PLATFORMS["snic-cpu"] = original
    return point.throughput_rps


def run_strategy1(
    keys: Sequence[str] = DEFAULT_KEYS,
    scenarios: Sequence[OffloadScenario] = SCENARIOS,
    samples: int = 150,
    n_requests: int = 8_000,
    streams: Optional[RandomStreams] = None,
    executor: Optional[ParallelExecutor] = None,
    engine: Optional[str] = None,
) -> List[Strategy1Row]:
    """Measure each function under each stack-offload scenario.

    Host baselines are canonical-calibration operating points, so they
    go through the content-addressed cache (free after a fig4 run at
    the same fidelity/seed); the what-if SNIC points re-price the stack
    per scenario inside their own work units, so every (key, scenario)
    cell fans out through ``executor`` deterministically.
    """
    streams = streams or RandomStreams(31)
    seed = streams.root_seed
    executor = executor or ParallelExecutor(1)
    engine = hybrid.resolve_engine(engine)

    host_args = [(key, "host", seed, samples, n_requests, None, engine)
                 for key in keys]
    host_points = map_cached(
        executor,
        [WorkUnit(name=f"strategy1:{key}:host", fn=compute_operating_point,
                  args=args) for key, args in zip(keys, host_args)],
        [operating_point_cache_key(*args) for args in host_args],
    )
    snic_units = [
        WorkUnit(
            name=f"strategy1:{key}:{scenario.name}",
            fn=_snic_point_under_offload,
            args=(key, scenario, index + 1, seed, samples, n_requests,
                  engine),
        )
        for key in keys
        for index, scenario in enumerate(scenarios)
    ]
    snic_rps = executor.map(snic_units)

    rows: List[Strategy1Row] = []
    cell = 0
    for key, host in zip(keys, host_points):
        for scenario in scenarios:
            rows.append(
                Strategy1Row(
                    key=key,
                    scenario=scenario.name,
                    snic_throughput_rps=snic_rps[cell],
                    host_throughput_rps=host.throughput_rps,
                )
            )
            cell += 1
    return rows


def rows_by_scenario(rows: List[Strategy1Row]) -> Dict[str, Dict[str, float]]:
    """{scenario: {function: snic/host ratio}}"""
    result: Dict[str, Dict[str, float]] = {}
    for row in rows:
        result.setdefault(row.scenario, {})[row.key] = row.ratio
    return result


def format_strategy1(rows: List[Strategy1Row]) -> str:
    by_scenario = rows_by_scenario(rows)
    keys = sorted({row.key for row in rows})
    scenario_names = [s.name for s in SCENARIOS if s.name in by_scenario]
    header = f"{'function':<24}" + "".join(f"{name:>20}" for name in scenario_names)
    lines = [header, "-" * len(header)]
    for key in keys:
        cells = "".join(
            f"{by_scenario[name].get(key, float('nan')):>20.2f}"
            for name in scenario_names
        )
        lines.append(f"{key:<24}" + cells)
    lines.append("")
    lines.append("(cells: SNIC/host max-throughput ratio)")
    return "\n".join(lines)


def _strategy1_runner(ctx: ExperimentContext) -> List[Strategy1Row]:
    fid = ctx.fidelity()
    return run_strategy1(samples=fid.samples, n_requests=fid.requests,
                         streams=ctx.streams, executor=ctx.executor,
                         engine=fid.engine)


register(Experiment(
    name="strategy1",
    description="Fig. 4 points re-measured with fractions of the SNIC "
                "stack moved to NIC hardware (AccelTCP/FlexTOE-style)",
    runner=_strategy1_runner,
    formatter=format_strategy1,
    to_json=lambda rows: [
        {"key": r.key, "scenario": r.scenario,
         "snic_throughput_rps": r.snic_throughput_rps,
         "host_throughput_rps": r.host_throughput_rps,
         "ratio": r.ratio}
        for r in rows
    ],
    schema={
        "type": "array",
        "minItems": 1,
        "items": {
            "type": "object",
            "required": ["key", "scenario", "snic_throughput_rps",
                         "host_throughput_rps", "ratio"],
            "properties": {
                "key": {"type": "string"},
                "scenario": {"type": "string"},
                "ratio": {"type": ["number", "null"]},
            },
        },
    },
    tiers=smoke_tier(),
    unit_granularity="one (key, offload-scenario) re-measurement",
    degradation=DEGRADE_PARTIAL,
))
