"""Figure 5: REM throughput and p99 latency versus offered packet rate.

MTU-size packets; the host software matcher at 1, 4, and 8 cores, and the
SNIC REM accelerator, for the file_image and file_executable rule sets.
This is where Key Observation 3 (the accelerator's ~50 Gbps cap) and the
host's rule-set-dependent latency wall (file_image's p99 explodes past
~40 Gbps, Key Observation 4) come from.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence


from ..core import hybrid
from ..core.cache import cache_key
from ..core.executor import ParallelExecutor, WorkUnit, map_cached
from ..core.rng import RandomStreams
from ..core.units import gbps_to_bytes_per_second
from .measurement import ACCEL_PLATFORM, run_ladder, run_validated_ladder
from .profiles import FunctionProfile, get_profile
from .registry import Experiment, ExperimentContext, register, smoke_tier

logger = logging.getLogger("repro.fig5")

DEFAULT_RATES_GBPS = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 60, 70, 80, 90, 100)
HOST_CORE_COUNTS = (1, 4, 8)


@dataclass
class Fig5Point:
    offered_gbps: float
    achieved_gbps: float
    p99_latency_s: float
    saturated: bool


@dataclass
class Fig5Series:
    label: str
    ruleset: str
    platform: str
    cores: Optional[int]
    points: List[Fig5Point] = field(default_factory=list)

    def max_achieved_gbps(self) -> float:
        return max((p.achieved_gbps for p in self.points), default=0.0)


def _rate_for_gbps(profile: FunctionProfile, gbps: float) -> float:
    return gbps_to_bytes_per_second(gbps) / profile.wire_bytes


def measure_series(
    profile: FunctionProfile,
    platform: str,
    label: str,
    rates_gbps: Sequence[float],
    streams: RandomStreams,
    cores: Optional[int] = None,
    n_requests: int = 12_000,
    engine: Optional[str] = None,
) -> Fig5Series:
    if cores is not None:
        profile = replace(profile, cores={**profile.cores, platform: cores})
    series = Fig5Series(
        label=label, ruleset=profile.key, platform=platform, cores=cores
    )
    rates = [_rate_for_gbps(profile, float(gbps)) for gbps in rates_gbps]
    if hybrid.resolve_engine(engine) == hybrid.ENGINE_HYBRID:
        # One batched kernel call per curve covering the knee window and
        # the low/high spot checks; far-from-knee rates are answered
        # analytically once the spot checks validate within tolerance
        # (see measurement.run_validated_ladder).
        per_rate = run_validated_ladder(profile, platform, rates, streams,
                                        n_requests)
    else:
        # The same ladder with every rate simulated: a rung the hybrid
        # engine simulates has the same bits here.
        per_rate = run_ladder(profile, platform, rates, streams, n_requests)
    for gbps, metrics in zip(rates_gbps, per_rate):
        series.points.append(
            Fig5Point(
                offered_gbps=float(gbps),
                achieved_gbps=metrics.goodput_gbps,
                p99_latency_s=metrics.latency_p99,
                saturated=not metrics.sustained,
            )
        )
    return series


def compute_series(
    ruleset: str,
    platform: str,
    label: str,
    cores: Optional[int],
    rates_gbps: Sequence[float],
    samples: int,
    n_requests: int,
    seed: int,
    engine: Optional[str] = None,
) -> Fig5Series:
    """Picklable work unit: one Fig. 5 curve from primitives.

    Rebuilds the profile and a fresh ``RandomStreams(seed)``; every
    simulated rate point draws from the curve's one
    ``(seed, key:platform:ladder)`` substream, so the curve is
    independent of which process — or position in the batch — computes
    it.
    """
    profile = get_profile(f"rem:{ruleset}@mtu", samples=samples)
    return measure_series(
        profile, platform, label, tuple(rates_gbps), RandomStreams(seed),
        cores=cores, n_requests=n_requests, engine=engine,
    )


def _series_cache_key(
    ruleset: str,
    platform: str,
    cores: Optional[int],
    rates_gbps: Sequence[float],
    samples: int,
    n_requests: int,
    seed: int,
    engine: str,
) -> str:
    return cache_key("fig5-series", ruleset, platform, cores,
                     tuple(float(r) for r in rates_gbps), samples,
                     n_requests, seed, engine)


def run_fig5(
    rulesets: Sequence[str] = ("file_image", "file_executable"),
    rates_gbps: Sequence[float] = DEFAULT_RATES_GBPS,
    samples: int = 200,
    n_requests: int = 12_000,
    streams: Optional[RandomStreams] = None,
    jobs: int = 1,
    executor: Optional[ParallelExecutor] = None,
    engine: Optional[str] = None,
) -> Dict[str, List[Fig5Series]]:
    """All Fig. 5 curves, keyed by rule set.

    Each (ruleset, platform, cores) curve is an independent work unit;
    ``jobs=N`` fans them out with output identical to the serial run,
    and whole curves are memoized in the result cache.  The probe engine
    is resolved here and travels inside the unit args so workers never
    depend on an inherited process global.
    """
    streams = streams or RandomStreams()
    seed = streams.root_seed
    executor = executor or ParallelExecutor(jobs)
    engine = hybrid.resolve_engine(engine)

    specs = []  # (ruleset, platform, label, cores)
    for ruleset in rulesets:
        for cores in HOST_CORE_COUNTS:
            specs.append((ruleset, "host", f"host-{cores}c", cores))
        specs.append((ruleset, ACCEL_PLATFORM, "snic-accel", None))
    units = [
        WorkUnit(
            name=f"fig5:{ruleset}:{label}",
            fn=compute_series,
            args=(ruleset, platform, label, cores, tuple(rates_gbps),
                  samples, n_requests, seed, engine),
        )
        for ruleset, platform, label, cores in specs
    ]
    keys = [
        _series_cache_key(ruleset, platform, cores, rates_gbps, samples,
                          n_requests, seed, engine)
        for ruleset, platform, _, cores in specs
    ]
    logger.info("fig5: measuring %d curves x %d rates (jobs=%d)",
                len(units), len(rates_gbps), executor.jobs)
    series = map_cached(executor, units, keys)

    figure: Dict[str, List[Fig5Series]] = {ruleset: [] for ruleset in rulesets}
    for (ruleset, _, _, _), curve in zip(specs, series):
        figure[ruleset].append(curve)
    return figure


def format_fig5(figure: Dict[str, List[Fig5Series]]) -> str:
    lines = []
    for ruleset, curves in figure.items():
        lines.append(f"== {ruleset} ==")
        header = "offered_gbps " + " ".join(f"{c.label:>22}" for c in curves)
        lines.append(header + "   (achieved_gbps / p99_us)")
        for index, point in enumerate(curves[0].points):
            cells = []
            for curve in curves:
                p = curve.points[index]
                cells.append(f"{p.achieved_gbps:>10.1f}/{p.p99_latency_s*1e6:>9.1f}")
            lines.append(f"{point.offered_gbps:>12.0f} " + " ".join(c for c in cells))
    return "\n".join(lines)


# A short rate ladder that still brackets the accelerator's ~50 Gb/s cap.
SMOKE_RATES_GBPS = (10, 30, 50)


def _fig5_runner(ctx: ExperimentContext) -> Dict[str, List[Fig5Series]]:
    fid = ctx.fidelity()
    kwargs = dict(samples=fid.samples, n_requests=fid.requests,
                  streams=ctx.streams, executor=ctx.executor,
                  engine=fid.engine)
    if fid.rates_gbps is not None:
        kwargs["rates_gbps"] = fid.rates_gbps
    return run_fig5(**kwargs)


def _fig5_chart(figure: Dict[str, List[Fig5Series]]) -> str:
    from ..analysis.plots import fig5_chart

    return "\n\n".join(
        f"[{ruleset}]\n{fig5_chart(curves)}"
        for ruleset, curves in figure.items()
    )


def _write_fig5_csv(stream, figure: Dict[str, List[Fig5Series]]) -> int:
    from ..analysis.export import write_fig5_csv

    return write_fig5_csv(stream, figure)


FIG5_SERIES_SCHEMA = {
    "type": "object",
    "required": ["label", "ruleset", "platform", "points"],
    "properties": {
        "label": {"type": "string"},
        "ruleset": {"type": "string"},
        "platform": {"type": "string"},
        "cores": {"type": ["integer", "null"]},
        "points": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["offered_gbps", "achieved_gbps",
                             "p99_latency_s", "saturated"],
                "properties": {
                    "offered_gbps": {"type": "number"},
                    "achieved_gbps": {"type": "number"},
                    "p99_latency_s": {"type": ["number", "null"]},
                    "saturated": {"type": "boolean"},
                },
            },
        },
    },
}

register(Experiment(
    name="fig5",
    description="host matcher at 1/4/8 cores and the REM accelerator "
                "swept over offered packet rates, per rule set",
    runner=_fig5_runner,
    formatter=format_fig5,
    chart=_fig5_chart,
    csv_writer=_write_fig5_csv,
    # Fig5Series dataclasses serialize field-for-field; no custom mapper.
    schema={
        "type": "object",
        "required": ["file_image", "file_executable"],
        "properties": {
            "file_image": {"type": "array", "minItems": 1,
                           "items": FIG5_SERIES_SCHEMA},
            "file_executable": {"type": "array", "minItems": 1,
                                "items": FIG5_SERIES_SCHEMA},
        },
    },
    tiers=smoke_tier(rates_gbps=SMOKE_RATES_GBPS),
    unit_granularity="one (rule set, series, offered rate) sweep point",
))
