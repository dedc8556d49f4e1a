"""The measurement methodology of §4.

For each (function, platform) pair the paper (1) finds the packet rate at
which throughput saturates, (2) reports the throughput there and the p99
latency measured at that operating point, and (3) measures average wall
power at the same point.  This module reproduces that procedure against
the calibrated platform models:

* CPU platforms (host / SNIC CPU) serve requests on RSS-sharded cores;
  per-request service time = stack cycles + priced work units; latency =
  queueing sojourn + the stack's fixed RTT floor.
* The accelerator platform serves requests through a batch engine with a
  throughput cap (Key Observation 3), staged by SNIC CPU cores over DPDK.
* The NIC line rate bounds every networked function.

Power at the operating point comes from the component power model, with
poll-mode spin accounting (a DPDK core burns power even when idle).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..calibration import (
    ACCELERATORS,
    LINE_RATE_GBPS,
    PLATFORMS,
    POWER,
    base_rtt_sampler,
)
from ..core import analytic, hybrid, trace
from ..core.cache import cache_key, get_cache
from ..core.hybrid import TrustRecord
from ..core.metrics import RunMetrics
from ..core.queueing import (
    COMP_STACK_RTT,
    Overloaded,
    outcome_to_metrics,
    outcome_to_verdict,
    draw_unit_gaps,
    simulate_batch_server,
    simulate_batch_server_ladder,
    served_rate_bound,
    simulate_sharded,
    simulate_sharded_ladder,
)
from ..core.rng import RandomStreams
from ..core.sweep import SweepResult, find_max_sustainable_rate
from ..core.units import gbps_to_bytes_per_second
from ..obs import metrics as obs_metrics
from ..power.models import ComponentLoad, ServerPowerModel, SnicPowerModel
from .profiles import FunctionProfile, get_profile

ACCEL_PLATFORM = "snic-accel"
CPU_PLATFORMS = ("host", "snic-cpu")
BATCH_TIMEOUT_S = 15e-6
QUEUE_LIMIT_S = 2e-3  # socket/ring buffering bound: overload becomes loss
# Buffers always hold at least a few tens of requests, so the backlog
# bound never drops below this many mean service times.
QUEUE_LIMIT_SERVICES = 8.0
# The deterministic knee-search ladder: offered rates are these factors
# times the analytic capacity anchor (shared by both probe engines so
# the hybrid's trust regions are expressed in the same load factors the
# pure-simulation ladder probes).
LADDER_FACTORS = np.geomspace(0.3, 1.45, 12)
# A knee rung is acceptable while it serves at least this fraction of
# its offered rate (the paper's "maximum sustainable throughput").
ACCEPTABLE_SERVED_FRACTION = 0.95
# The most rungs one stacked kernel pass holds.  A ladder's rungs are
# independent rows over its shared draws, so a longer ladder (every
# 15-rung Fig. 5 curve under ``--engine sim``) runs in passes of this
# many, each converted before the next is built: the same bits with at
# most this many rungs' (rungs x requests) arrays alive.  The hybrid
# engine's windows fit in one pass, and a ``sim`` knee descends one
# rung a pass.
_STACK_RUNGS = 6


class MeasurementError(RuntimeError):
    pass


@dataclass
class OperatingPoint:
    """One platform's Fig. 4 data point, with the Fig. 6 power numbers."""

    profile_key: str
    platform: str
    capacity_rps: float
    metrics: RunMetrics
    load: ComponentLoad
    server_power_w: float
    device_power_w: float  # the (S)NIC alone

    @property
    def throughput_rps(self) -> float:
        return self.metrics.completed_rate

    @property
    def goodput_gbps(self) -> float:
        return self.metrics.goodput_gbps

    @property
    def p99_latency_s(self) -> float:
        return self.metrics.latency_p99


def operating_point_json(point: "OperatingPoint") -> Dict[str, object]:
    """The stable machine-readable view of one operating point, shared
    by every experiment's ``--json`` artifact."""
    return {
        "platform": point.platform,
        "capacity_rps": point.capacity_rps,
        "throughput_rps": point.throughput_rps,
        "goodput_gbps": point.goodput_gbps,
        "p99_latency_s": point.p99_latency_s,
        "server_power_w": point.server_power_w,
        "device_power_w": point.device_power_w,
    }


# Schema fragment for :func:`operating_point_json` payloads.
OPERATING_POINT_SCHEMA = {
    "type": "object",
    "required": ["platform", "capacity_rps", "throughput_rps",
                 "goodput_gbps", "p99_latency_s", "server_power_w"],
    "properties": {
        "platform": {"type": "string"},
        "capacity_rps": {"type": "number"},
        "throughput_rps": {"type": "number"},
        "goodput_gbps": {"type": "number"},
        "p99_latency_s": {"type": "number"},
        "server_power_w": {"type": "number"},
        "device_power_w": {"type": "number"},
    },
}


# ---------------------------------------------------------------------------
# Service samplers
# ---------------------------------------------------------------------------


def cpu_service_seconds(profile: FunctionProfile, platform: str) -> np.ndarray:
    """Per-request service times (seconds) for a CPU platform.

    Deterministic in (profile, platform calibration), so the pricing
    pass runs once per pair and every probe shares one read-only array —
    a sweep prices the same work samples hundreds of times otherwise.
    The memo is validated against the *identity* of the calibration
    object: the what-if experiments (TCO strategy 1, sensitivity) swap
    ``PLATFORMS[platform]`` for a perturbed copy in place, and a stale
    array priced under the original physics must not survive the swap.
    """
    cache = getattr(profile, "_service_seconds_cache", None)
    if cache is None:
        cache = {}
        profile._service_seconds_cache = cache
    calibration = PLATFORMS[platform]
    cached = cache.get(platform)
    if cached is not None and cached[0] is calibration:
        return cached[1]
    work_seconds = np.array(
        [calibration.work_seconds(sample) for sample in profile.work_samples]
    )
    if profile.stack is not None and profile.stack_packets > 0:
        per_packet = calibration.stack_seconds(profile.stack, int(profile.wire_bytes))
        work_seconds = work_seconds + per_packet * profile.stack_packets
    work_seconds.setflags(write=False)
    cache[platform] = (calibration, work_seconds)
    return work_seconds


def cpu_cores(profile: FunctionProfile, platform: str) -> int:
    return profile.cores.get(platform, PLATFORMS[platform].cores)


def _nic_cap_rps(profile: FunctionProfile) -> float:
    if profile.stack is None:
        return float("inf")
    return gbps_to_bytes_per_second(LINE_RATE_GBPS) / profile.wire_bytes


def accel_per_item_seconds(profile: FunctionProfile) -> float:
    engine = ACCELERATORS[profile.accel_engine]
    if profile.accel_op_based:
        return 1.0 / engine.ops_per_s[profile.accel_mode]
    return profile.payload_bytes / engine.bytes_per_s[profile.accel_mode]


# ---------------------------------------------------------------------------
# Fixed-rate runs
# ---------------------------------------------------------------------------


def run_fixed_rate(
    profile: FunctionProfile,
    platform: str,
    rate: float,
    streams: RandomStreams,
    n_requests: int = 20_000,
    verdict_only: bool = False,
):
    """Offer ``rate`` requests/s and measure (the inner loop of a sweep).

    With ``verdict_only`` the caller needs nothing but the rung's
    acceptability: a CPU run whose drops prove it cannot serve
    :data:`ACCEPTABLE_SERVED_FRACTION` of ``rate`` stops early and
    returns :class:`~repro.core.queueing.Overloaded`, and any run that
    goes to the end returns a :class:`~repro.core.queueing.VerdictRecord`
    (DESIGN.md §9).
    """
    obs_metrics.counter(obs_metrics.PROBES).inc()
    obs_metrics.counter(obs_metrics.PROBES_SIMULATED).inc()
    if not trace.TRACING:
        metrics = _run_fixed_rate(profile, platform, rate, streams,
                                  n_requests, verdict_only)
        _count_verdicts((metrics,))
        return metrics
    # Each probe records onto its own sub-track, so its queue-depth
    # series and the probe summary stay grouped in the trace viewer.
    with trace.track(trace.subtrack(f"{profile.key}:{platform}:{rate:.6g}")):
        trace.instant("probe", trace.PROBE, function=profile.key,
                      platform=platform, rate=rate, n_requests=n_requests)
        metrics = _run_fixed_rate(profile, platform, rate, streams,
                                  n_requests, verdict_only)
        _count_verdicts((metrics,))
        _trace_probe_done(metrics)
        return metrics


def _count_verdicts(results) -> None:
    stopped = sum(isinstance(result, Overloaded) for result in results)
    if stopped:
        obs_metrics.counter(obs_metrics.VERDICT_ONLY).inc(stopped)


def _trace_probe_done(metrics, **fields) -> None:
    if isinstance(metrics, Overloaded):
        # A verdict-only rung has no p99 to show, only its verdict.
        trace.instant("probe.done", trace.PROBE, verdict="overloaded",
                      dropped=metrics.dropped, **fields)
        return
    trace.instant("probe.done", trace.PROBE, **fields,
                  completed_rate=metrics.completed_rate,
                  p99_us=metrics.latency_p99 * 1e6,
                  dropped=metrics.dropped)


def _run_fixed_rate(
    profile: FunctionProfile,
    platform: str,
    rate: float,
    streams: RandomStreams,
    n_requests: int,
    verdict_only: bool = False,
):
    if platform == ACCEL_PLATFORM:
        return _run_accelerator(profile, rate, streams, n_requests,
                                verdict_only)
    if platform not in CPU_PLATFORMS:
        raise MeasurementError(f"unknown platform {platform!r}")
    if platform not in profile.platforms:
        raise MeasurementError(f"{profile.key} does not run on {platform}")

    rng = streams.stream(f"{profile.key}:{platform}:{rate:.6g}")
    services = cpu_service_seconds(profile, platform)
    cores = cpu_cores(profile, platform)
    nic_cap = _nic_cap_rps(profile)
    effective_rate = min(rate, nic_cap)
    queue_limit = _cpu_queue_limit(profile, platform, services)

    def sampler(sampler_rng: np.random.Generator, n: int) -> np.ndarray:
        return sampler_rng.choice(services, size=n)

    outcome = simulate_sharded(
        effective_rate, cores, sampler, n_requests, rng, queue_limit=queue_limit,
        min_served_rate=_verdict_floor(rate) if verdict_only else None,
    )
    if isinstance(outcome, Overloaded):
        return outcome
    outcome = _add_fixed_latency(outcome, profile, platform, rng)
    return _clip_to_cap(_rung_metrics(outcome, rate, profile, cores,
                                      verdict_only), rate, nic_cap, n_requests)


def _verdict_floor(rate: float) -> float:
    """The completed rate a knee rung offered ``rate`` must reach."""
    return ACCEPTABLE_SERVED_FRACTION * rate


def _clip_to_cap(metrics, rate: float, cap: float, n_requests: int):
    """Offered load above ``cap`` (wire rate, accelerator staging) never
    reaches the server: its share of the requests counts as dropped."""
    if rate > cap:
        metrics.completed_rate = min(metrics.completed_rate, cap)
        metrics.dropped += int((rate - cap) / rate * n_requests)
    return metrics


def _rung_metrics(outcome, rate: float, profile: FunctionProfile, cores: int,
                  verdict_only: bool):
    """A finished rung's ``RunMetrics``, or only its verdict record."""
    if verdict_only:
        return outcome_to_verdict(outcome, offered_rate=rate, cores=cores)
    return outcome_to_metrics(outcome, offered_rate=rate,
                              bytes_per_request=profile.wire_bytes, cores=cores)


def _add_fixed_latency(outcome, profile, platform, rng):
    n = len(outcome.sojourns)
    if n == 0:
        return outcome
    extra = np.zeros(n)
    stack = profile.stack
    if stack is not None:
        calibration = PLATFORMS[platform] if platform != ACCEL_PLATFORM else PLATFORMS["snic-cpu"]
        cost = calibration.stacks[stack]
        extra = extra + base_rtt_sampler(cost)(rng, n)
    adder = profile.latency_extra.get(platform, 0.0)
    # add_component keeps sojourns and the attribution arrays in sync.
    outcome.add_component(COMP_STACK_RTT, extra + adder)
    return outcome


def _run_accelerator(
    profile: FunctionProfile,
    rate: float,
    streams: RandomStreams,
    n_requests: int,
    verdict_only: bool = False,
):
    if profile.accel_engine is None:
        raise MeasurementError(f"{profile.key} has no accelerator path")
    rng = streams.stream(f"{profile.key}:accel:{rate:.6g}")
    engine = ACCELERATORS[profile.accel_engine]
    per_item = accel_per_item_seconds(profile)

    # Staging: SNIC CPU cores feed the engine over DPDK (§3.4).  They cap
    # the submission rate but their per-packet time is tiny.
    cap = min(_staging_cap_rps(profile), _nic_cap_rps(profile))
    effective_rate = min(rate, cap)

    outcome = simulate_batch_server(
        effective_rate,
        n_requests,
        rng,
        batch_size=engine.max_batch,
        batch_timeout=BATCH_TIMEOUT_S,
        setup_time=engine.setup_latency_s,
        per_item_time=per_item,
    )
    outcome = _add_fixed_latency(outcome, profile, ACCEL_PLATFORM, rng)
    return _clip_to_cap(_rung_metrics(outcome, rate, profile, 1, verdict_only),
                        rate, cap, n_requests)


# ---------------------------------------------------------------------------
# Batched ladder probes (hybrid engine fast path)
# ---------------------------------------------------------------------------


def _cpu_queue_limit(
    profile: FunctionProfile, platform: str, services: np.ndarray
) -> float:
    calibration = PLATFORMS[platform]
    queue_limit = QUEUE_LIMIT_S
    if profile.stack is not None:
        queue_limit = calibration.stacks[profile.stack].queue_limit_s
    return max(queue_limit, QUEUE_LIMIT_SERVICES * float(np.mean(services)))


def _stack_rtt_floor(profile: FunctionProfile, platform: str) -> tuple:
    """(mean, p99) of the fixed stack-RTT + latency-extra floor."""
    stack = profile.stack
    adder = profile.latency_extra.get(platform, 0.0)
    if stack is None:
        return adder, adder
    calibration = (PLATFORMS[platform] if platform != ACCEL_PLATFORM
                   else PLATFORMS["snic-cpu"])
    cost = calibration.stacks[stack]
    return cost.base_rtt_mean_s + adder, cost.base_rtt_p99_s + adder


def run_ladder(
    profile: FunctionProfile,
    platform: str,
    rates,
    streams: RandomStreams,
    n_requests: int = 20_000,
    verdict_only=None,
) -> list:
    """Simulate several rates of one (function, platform) in one batch.

    The simulated path for Fig. 5 curves under both engines and for the
    hybrid engine's knee windows: every rung shares one sampled service
    array, one unit-mean interarrival array, and one stack-RTT array
    (drawn from the dedicated ``:ladder`` substream), evaluated by the
    stacked kernels in :mod:`repro.core.queueing` at most
    :data:`_STACK_RUNGS` rungs per pass.  A rung's result depends only
    on its rate and those draws, not on which other rungs share the
    call.  Returns one :class:`RunMetrics` per rate, in order.
    ``verdict_only`` holds one flag per rate; a flagged rung comes back
    :class:`~repro.core.queueing.Overloaded` or as a verdict record (see
    :func:`run_fixed_rate`).
    """
    rates = [float(rate) for rate in rates]
    if not rates:
        return []
    flags = verdict_only or [False] * len(rates)

    def simulate() -> list:
        run_pass, _ = _ladder_draws(profile, platform, streams, n_requests)
        results = []
        for start in range(0, len(rates), _STACK_RUNGS):
            stop = start + _STACK_RUNGS
            results.extend(run_pass(rates[start:stop], flags[start:stop]))
        return results

    return _probe_ladder(profile, platform, rates, n_requests, simulate)


def descend_ladder(
    profile: FunctionProfile,
    platform: str,
    ladder,
    streams: RandomStreams,
    n_requests: int = 20_000,
    slo_p99: Optional[float] = None,
) -> list:
    """The ``--engine sim`` knee search: the top rungs of ``ladder``
    that decide its knee, simulated verdict-only from the top down.

    Draws :func:`run_ladder`'s shared arrays once and simulates one rung
    per kernel pass, from the highest rate down.  It stops at the first
    rung ``k`` where some rung that ran is acceptable and the best
    acceptable completed rate among them is at least the
    :func:`~repro.core.queueing.served_rate_bound` of every rung below
    ``k``, computed from that rung's own draws: no lower rung can then
    out-serve the knee of the rungs that ran, so
    ``_select_knee(ladder[k:], result)`` picks exactly what it picks
    over the whole ladder (DESIGN.md §14).  Returns the results of
    ``ladder[k:]``, in order, each with the bits :func:`run_ladder`
    gives it on the same draws.
    """
    rates = [float(rate) for rate in ladder]

    def simulate() -> list:
        run_pass, served_bound = _ladder_draws(profile, platform, streams,
                                               n_requests)
        ran = []
        best = None  # the best acceptable completed rate so far
        for index in reversed(range(len(rates))):
            rung, = run_pass([rates[index]], [True])
            ran.append(rung)
            if _rung_acceptable(rung, rates[index], slo_p99):
                best = max(rung.completed_rate, best or 0.0)
            # Nearest rung first: its bound is the likeliest to fail.
            if best is not None and all(
                    best >= served_bound(rate)
                    for rate in reversed(rates[:index])):
                break
        return ran[::-1]

    return _probe_ladder(profile, platform, rates, n_requests, simulate)


def _probe_ladder(profile, platform, rates, n_requests, simulate) -> list:
    """Count and trace the rungs ``simulate()`` returns: the results of
    the top ``len(result)`` rates of ``rates``, which share one draw."""
    if not trace.TRACING:
        results = simulate()
    else:
        with trace.track(trace.subtrack(f"{profile.key}:{platform}:ladder")):
            # ``rungs`` is the ladder's size; a descent's probe.done
            # events are the rungs that ran.
            trace.instant("probe.ladder", trace.PROBE, function=profile.key,
                          platform=platform, rungs=len(rates),
                          n_requests=n_requests)
            results = simulate()
            for rate, rung in zip(rates[len(rates) - len(results):], results):
                _trace_probe_done(rung, rate=rate)
    count = len(results)
    obs_metrics.counter(obs_metrics.PROBES).inc(count)
    obs_metrics.counter(obs_metrics.PROBES_SIMULATED).inc(count)
    if count > 1:
        # Every rung past the first reuses the shared draws instead of
        # re-sampling (services + gaps + stack RTT).
        obs_metrics.counter(obs_metrics.SAMPLES_REUSED).inc(count - 1)
    _count_verdicts(results)
    return results


def _ladder_draws(profile, platform, streams, n_requests) -> tuple:
    """One ladder's shared draws, as ``(run_pass, served_bound)``.

    ``run_pass(rates, flags)`` simulates one kernel pass of rungs (a
    flagged rung verdict-only) and converts them; ``served_bound(rate)``
    bounds the completed rate of the rung offered ``rate`` without
    simulating it.
    """
    if platform == ACCEL_PLATFORM:
        cores, cap, rtt, kernel, bound = _accelerator_ladder(
            profile, streams, n_requests)
    else:
        cores, cap, rtt, kernel, bound = _cpu_ladder(
            profile, platform, streams, n_requests)

    def run_pass(rates, flags) -> list:
        # The outcomes hold views of the pass's stacked arrays; they die
        # on return, before the ladder's next pass is built.
        outcomes = kernel([min(rate, cap) for rate in rates],
                          [_verdict_floor(rate) if flag else None
                           for rate, flag in zip(rates, flags)])
        results = []
        for rate, outcome, flag in zip(rates, outcomes, flags):
            if not isinstance(outcome, Overloaded):
                outcome.add_component(COMP_STACK_RTT,
                                      rtt[: len(outcome.sojourns)])
                outcome = _clip_to_cap(
                    _rung_metrics(outcome, rate, profile, cores, flag),
                    rate, cap, n_requests)
            results.append(outcome)
        return results

    return run_pass, lambda rate: bound(min(rate, cap))


def _cpu_ladder(profile, platform, streams, n_requests) -> tuple:
    """(cores, wire cap, shared stack RTTs, kernel pass, served-rate
    bound at an effective rate) of a CPU ladder."""
    if platform not in CPU_PLATFORMS:
        raise MeasurementError(f"unknown platform {platform!r}")
    if platform not in profile.platforms:
        raise MeasurementError(f"{profile.key} does not run on {platform}")
    rng = streams.fresh(f"{profile.key}:{platform}:ladder")
    services = cpu_service_seconds(profile, platform)
    cores = cpu_cores(profile, platform)
    queue_limit = _cpu_queue_limit(profile, platform, services)
    unit_gaps = draw_unit_gaps(n_requests, rng)
    shared = rng.choice(services, size=n_requests)

    def kernel(effective, floors) -> list:
        return simulate_sharded_ladder(
            effective, cores, unit_gaps, shared, queue_limit=queue_limit,
            min_served_rates=floors)

    def bound(effective) -> float:
        # The shard's last arrival, summed as the kernel sums it.
        last = float(np.cumsum(unit_gaps / (effective / cores))[-1])
        return served_rate_bound(n_requests, last, cores,
                                 float(np.max(shared)))

    return (cores, _nic_cap_rps(profile),
            _shared_rtt(profile, platform, rng, n_requests), kernel, bound)


def _accelerator_ladder(profile, streams, n_requests) -> tuple:
    """(cores, staging/wire cap, shared stack RTTs, kernel pass,
    served-rate bound at an effective rate) of an accelerator ladder.
    The batch server has no bounded buffer, so no rung stops early."""
    if profile.accel_engine is None:
        raise MeasurementError(f"{profile.key} has no accelerator path")
    rng = streams.fresh(f"{profile.key}:accel:ladder")
    engine = ACCELERATORS[profile.accel_engine]
    per_item = accel_per_item_seconds(profile)
    unit_arrivals = np.cumsum(draw_unit_gaps(n_requests, rng))

    def kernel(effective, floors) -> list:
        return simulate_batch_server_ladder(
            effective, unit_arrivals, batch_size=engine.max_batch,
            batch_timeout=BATCH_TIMEOUT_S,
            setup_time=engine.setup_latency_s, per_item_time=per_item)

    def bound(effective) -> float:
        return served_rate_bound(n_requests,
                                 float(unit_arrivals[-1] / effective))

    return (1, min(_staging_cap_rps(profile), _nic_cap_rps(profile)),
            _shared_rtt(profile, ACCEL_PLATFORM, rng, n_requests), kernel,
            bound)


def _shared_rtt(profile, platform, rng, n_requests) -> np.ndarray:
    """One stack-RTT draw shared by every rung of a ladder.

    RTT draws are i.i.d. and independent of the queueing state, so a
    rung that dropped requests simply consumes a prefix of the shared
    array.
    """
    extra = np.zeros(n_requests)
    stack = profile.stack
    if stack is not None:
        calibration = (PLATFORMS[platform] if platform != ACCEL_PLATFORM
                       else PLATFORMS["snic-cpu"])
        extra = extra + base_rtt_sampler(calibration.stacks[stack])(rng, n_requests)
    return extra + profile.latency_extra.get(platform, 0.0)


def _staging_cap_rps(profile: FunctionProfile) -> float:
    staging_cap = float("inf")
    staging_stack = profile.stack
    if staging_stack is not None:
        snic = PLATFORMS["snic-cpu"]
        staging_per_packet = snic.stack_seconds(
            staging_stack, int(profile.wire_bytes))
        staging_cap = ACCELERATORS[profile.accel_engine].staging_cores / staging_per_packet
    return staging_cap


# ---------------------------------------------------------------------------
# Analytic probe predictions (hybrid engine fast path)
# ---------------------------------------------------------------------------


def predict_fixed_rate(
    profile: FunctionProfile,
    platform: str,
    rate: float,
    n_requests: int = 20_000,
) -> RunMetrics:
    """Analytic prediction of :func:`run_fixed_rate` (no simulation).

    CPU platforms use the M/G/1 Pollaczek-Khinchine mean wait and the
    exponential-tail p99 per RSS shard plus the calibrated stack-RTT
    floor; the accelerator uses the batch-capacity model.  The hybrid
    engine only *reports* these inside a simulation-validated trust
    region (see :mod:`repro.core.hybrid`); throughput acceptance above
    capacity and latency under SLO bounds stay simulation-gated.

    The returned metrics carry ``extra["probe.analytic"] == 1.0`` so
    downstream layers can tell the two kinds of probe apart.
    """
    rtt_mean, rtt_p99 = _stack_rtt_floor(profile, platform)
    nic_cap = _nic_cap_rps(profile)
    if platform == ACCEL_PLATFORM:
        if profile.accel_engine is None:
            raise MeasurementError(f"{profile.key} has no accelerator path")
        engine = ACCELERATORS[profile.accel_engine]
        per_item = accel_per_item_seconds(profile)
        batch_cap = analytic.batch_capacity(
            engine.setup_latency_s, per_item, engine.max_batch)
        cap = min(batch_cap, _staging_cap_rps(profile), nic_cap)
        effective = min(rate, _staging_cap_rps(profile), nic_cap)
        # Expected batch fill under timeout dispatch, and the resulting
        # service span; below capacity a request waits at most the
        # timeout for its batch to form.
        fill = min(engine.max_batch, max(1.0, effective * BATCH_TIMEOUT_S))
        span = engine.setup_latency_s + fill * per_item
        if effective < cap * 0.999:
            completed_rate = min(rate, cap)
            latency_mean = 0.5 * BATCH_TIMEOUT_S + span + rtt_mean
            latency_p99 = BATCH_TIMEOUT_S + span + rtt_p99
            latency_p50 = 0.5 * BATCH_TIMEOUT_S + span + rtt_mean
        else:
            completed_rate = cap
            latency_mean = latency_p99 = latency_p50 = float("inf")
        return _analytic_metrics(
            profile, rate, completed_rate, latency_p50, latency_p99,
            latency_mean, n_requests)

    services = cpu_service_seconds(profile, platform)
    mean_service = float(np.mean(services))
    scv = float(np.var(services)) / (mean_service**2)
    cores = cpu_cores(profile, platform)
    capacity = min(cores / mean_service, nic_cap)
    effective = min(rate, nic_cap)
    shard_rate = effective / cores
    rho = shard_rate * mean_service
    if rho < 1.0:
        wait_mean = analytic.mg1_wait_mean(shard_rate, mean_service, scv)
        sojourn_p99 = analytic.mg1_sojourn_p99(shard_rate, mean_service, scv)
        completed_rate = min(rate, effective)
        latency_mean = wait_mean + mean_service + rtt_mean
        latency_p99 = sojourn_p99 + rtt_p99
        latency_p50 = mean_service + rtt_mean
    else:
        # Overloaded: the bounded buffer pins the backlog at the queue
        # limit and sheds the excess.
        queue_limit = _cpu_queue_limit(profile, platform, services)
        completed_rate = capacity
        latency_mean = 0.75 * queue_limit + mean_service + rtt_mean
        latency_p99 = queue_limit + mean_service + rtt_p99
        latency_p50 = 0.75 * queue_limit + mean_service + rtt_mean
    return _analytic_metrics(
        profile, rate, completed_rate, latency_p50, latency_p99,
        latency_mean, n_requests)


def _analytic_metrics(
    profile, rate, completed_rate, p50, p99, mean, n_requests
) -> RunMetrics:
    served_fraction = min(1.0, completed_rate / rate) if rate > 0 else 1.0
    completed = int(round(n_requests * served_fraction))
    duration = n_requests / rate if rate > 0 else 0.0
    return RunMetrics(
        offered_rate=rate,
        duration=duration,
        completed=completed,
        completed_rate=completed_rate,
        goodput_gbps=completed_rate * profile.wire_bytes * 8 / 1e9,
        latency_p50=p50,
        latency_p99=p99,
        latency_mean=mean,
        dropped=n_requests - completed,
        extra={"probe.analytic": 1.0},
    )


# ---------------------------------------------------------------------------
# Operating points (capacity search + measurement at the knee)
# ---------------------------------------------------------------------------


def estimate_capacity_rps(
    profile: FunctionProfile, platform: str, slo_p99: Optional[float] = None
) -> float:
    """Analytic capacity estimate (see :mod:`repro.core.analytic`).

    Used both to anchor the deterministic knee ladder and to warm-start
    rate sweeps.  With ``slo_p99`` the M/G/1 tail approximation lowers
    the estimate to the rate whose analytic p99 meets the SLO.
    """
    if platform == ACCEL_PLATFORM:
        engine = ACCELERATORS[profile.accel_engine]
        return analytic.batch_capacity(
            engine.setup_latency_s, accel_per_item_seconds(profile),
            engine.max_batch,
        )
    services = cpu_service_seconds(profile, platform)
    mean_service = float(np.mean(services))
    if mean_service <= 0:
        raise MeasurementError(f"degenerate service time for {profile.key}")
    scv = float(np.var(services)) / (mean_service**2)
    return analytic.slo_capacity(
        mean_service, scv, cpu_cores(profile, platform), slo_p99
    )


def run_validated_ladder(
    profile: FunctionProfile,
    platform: str,
    rates,
    streams: RandomStreams,
    n_requests: int = 20_000,
) -> list:
    """Hybrid rate ladder for full sweeps (the Fig. 5 fast path).

    Simulates the knee window — rungs whose load factor against the
    analytic capacity anchor falls inside ``HybridConfig.sim_window`` —
    plus one low and one high spot-check rung (the lowest and highest
    offered rates), all in one batched :func:`run_ladder` call.  The
    remaining rungs are answered by :func:`predict_fixed_rate`, but only
    after the spot checks validate the analytic model:

    * *low side* — the lowest-rate simulation must agree with the
      prediction on acceptability **and** its p99 must match within
      ``p99_tolerance`` (the sub-window p99s appear verbatim in the
      Fig. 5 latency curves, so throughput agreement alone is not
      enough);
    * *high side* — the highest-rate simulation must agree with the
      prediction that the rung overloads.

    A failed spot check degrades that side back to batched simulation,
    so the fast path only ever engages inside tolerance.  The knee
    window itself is always simulated, which keeps every p99-wall
    crossing (Fig. 5's knee) simulation-backed.
    """
    rates = [float(rate) for rate in rates]
    if len(rates) <= 2:
        return run_ladder(profile, platform, rates, streams, n_requests)
    cfg = hybrid.config()
    anchor = min(estimate_capacity_rps(profile, platform),
                 _nic_cap_rps(profile))
    if platform == ACCEL_PLATFORM:
        anchor = min(anchor, _staging_cap_rps(profile))
    if not np.isfinite(anchor) or anchor <= 0:
        return run_ladder(profile, platform, rates, streams, n_requests)

    factors = [rate / anchor for rate in rates]
    below = [i for i, f in enumerate(factors) if f < cfg.sim_window_lo]
    above = [i for i, f in enumerate(factors) if f > cfg.sim_window_hi]
    window = [i for i, f in enumerate(factors)
              if cfg.sim_window_lo <= f <= cfg.sim_window_hi]
    if not window:
        # Degenerate grid: keep the rung nearest the anchor simulated.
        nearest = min(range(len(rates)), key=lambda i: abs(factors[i] - 1.0))
        window = [nearest]
        below = [i for i in below if i != nearest]
        above = [i for i in above if i != nearest]
    spot_low = min(below, key=lambda i: rates[i]) if below else None
    spot_high = max(above, key=lambda i: rates[i]) if above else None
    sim_idx = sorted(set(window)
                     | ({spot_low} if spot_low is not None else set())
                     | ({spot_high} if spot_high is not None else set()))

    simulated: Dict[int, RunMetrics] = {}

    def simulate(indices) -> None:
        todo = [i for i in indices if i not in simulated]
        if not todo:
            return
        for index, metrics in zip(
                todo,
                run_ladder(profile, platform, [rates[i] for i in todo],
                           streams, n_requests)):
            simulated[index] = metrics

    simulate(sim_idx)
    if len(simulated) == len(rates):
        return [simulated[i] for i in range(len(rates))]

    predictions = {
        index: predict_fixed_rate(profile, platform, rates[index], n_requests)
        for index in range(len(rates)) if index not in simulated
    }

    if spot_low is not None:
        sim_lo = simulated[spot_low]
        pred_lo = predict_fixed_rate(profile, platform, rates[spot_low],
                                     n_requests)
        p99_rel_err = float("inf")
        if np.isfinite(sim_lo.latency_p99) and sim_lo.latency_p99 > 0:
            p99_rel_err = abs(sim_lo.latency_p99 - pred_lo.latency_p99) \
                / sim_lo.latency_p99
        trust_low = (p99_rel_err <= cfg.p99_tolerance
                     and _rung_acceptable(sim_lo, rates[spot_low], None)
                     == _rung_acceptable(pred_lo, rates[spot_low], None))
        if not trust_low:
            simulate(below)
    if spot_high is not None:
        sim_hi = simulated[spot_high]
        pred_hi = predict_fixed_rate(profile, platform, rates[spot_high],
                                     n_requests)
        trust_high = (_rung_acceptable(sim_hi, rates[spot_high], None)
                      == _rung_acceptable(pred_hi, rates[spot_high], None))
        if not trust_high:
            simulate(above)

    analytic_count = len(rates) - len(simulated)
    if analytic_count:
        obs_metrics.counter(obs_metrics.PROBES).inc(analytic_count)
        obs_metrics.counter(obs_metrics.ANALYTIC_HITS).inc(analytic_count)
    return [simulated.get(index) or predictions[index]
            for index in range(len(rates))]


def measure_operating_point(
    profile: FunctionProfile,
    platform: str,
    streams: Optional[RandomStreams] = None,
    n_requests: int = 20_000,
    load_fraction: float = 0.95,
    slo_p99: Optional[float] = None,
    engine: Optional[str] = None,
) -> OperatingPoint:
    """Find the saturation knee, then measure at ``load_fraction`` of it.

    The knee is located with a deterministic geometric rate ladder around
    the analytic capacity estimate: capacity is the largest offered rate
    the system still serves with <=5 % loss (losses come from the stack's
    bounded buffers), which matches the paper's "maximum sustainable
    throughput".  An optional ``slo_p99`` additionally bounds the knee.

    ``engine`` selects the probe engine (:mod:`repro.core.hybrid`):
    ``"sim"`` simulates the ladder from the top down with
    :func:`descend_ladder`, only until no lower rung can move the knee,
    and reads no analytic prediction or trust record; ``"hybrid"`` (the
    default) simulates the knee window through the same ladder and
    serves the far-from-knee rungs analytically inside a validated
    trust region.  A rung both engines simulate has the same bits under
    either, and the measurement at the chosen knee is always a fresh
    standalone simulation on the same RNG substream, so whenever the two
    engines agree on the knee rung — disagreement at the window edges
    degrades the hybrid back to full simulation — they report identical
    operating points.
    """
    engine = hybrid.resolve_engine(engine)
    streams = streams or RandomStreams()
    if profile.load_fraction_override is not None:
        load_fraction = profile.load_fraction_override
    estimate = estimate_capacity_rps(profile, platform)
    nic_cap = _nic_cap_rps(profile)
    anchor = min(estimate, nic_cap)

    ladder = anchor * LADDER_FACTORS
    if engine == hybrid.ENGINE_SIM:
        # Only the top rungs that decide the knee are simulated, and only
        # their verdicts (and, if acceptable, completed rates) read.
        ran = descend_ladder(profile, platform, ladder, streams, n_requests,
                             slo_p99)
        knee_rate = _select_knee(ladder[len(ladder) - len(ran):], ran,
                                 slo_p99)
    else:
        knee_rate = _knee_hybrid(profile, platform, anchor, ladder, streams,
                                 n_requests, slo_p99)

    operating_rate = knee_rate * load_fraction
    metrics = run_fixed_rate(profile, platform, operating_rate, streams, n_requests)
    load = component_load(profile, platform, metrics.completed_rate)
    extra_w = profile.power_extra_w.get(platform, 0.0)
    return OperatingPoint(
        profile_key=profile.key,
        platform=platform,
        capacity_rps=knee_rate,
        metrics=metrics,
        load=load,
        server_power_w=ServerPowerModel().power(load) + extra_w,
        device_power_w=SnicPowerModel().power(load),
    )


def _rung_acceptable(metrics, rate: float,
                     slo_p99: Optional[float]) -> bool:
    if isinstance(metrics, Overloaded):
        return False  # its drops already proved it misses the floor
    served_fraction = metrics.completed_rate / rate if rate > 0 else 1.0
    acceptable = served_fraction >= ACCEPTABLE_SERVED_FRACTION
    if slo_p99 is not None and metrics.latency_p99 > slo_p99:
        acceptable = False
    return acceptable


def _select_knee(ladder, rung_metrics, slo_p99: Optional[float]) -> float:
    """The ladder's knee: largest acceptable rung still improving
    completed rate (identical to the legacy inline loop)."""
    knee_rate = float(ladder[0])  # kept if even the lowest rung overloads
    best_completed = 0.0
    for rate, metrics in zip(ladder, rung_metrics):
        rate = float(rate)
        if (_rung_acceptable(metrics, rate, slo_p99)
                and metrics.completed_rate >= best_completed):
            best_completed = metrics.completed_rate
            knee_rate = rate
    return knee_rate


def _trust_key(profile: FunctionProfile, platform: str, n_requests: int,
               seed: object, anchor: float) -> str:
    """Content hash of everything a trust region's validity depends on.

    Hashing the queueing model's *inputs* (service moments, cores, caps,
    RTT floor) rather than just the profile key means experiments that
    perturb calibration in place (sensitivity, TCO strategy 1) can never
    reuse a record validated against different physics.
    """
    rtt_mean, rtt_p99 = _stack_rtt_floor(profile, platform)
    if platform == ACCEL_PLATFORM:
        engine = ACCELERATORS[profile.accel_engine]
        model = ("batch", engine.setup_latency_s,
                 accel_per_item_seconds(profile), engine.max_batch,
                 BATCH_TIMEOUT_S, _staging_cap_rps(profile))
    else:
        services = cpu_service_seconds(profile, platform)
        mean_service = float(np.mean(services))
        model = ("mg1", mean_service,
                 float(np.var(services)) / (mean_service**2),
                 cpu_cores(profile, platform), len(services),
                 _cpu_queue_limit(profile, platform, services))
    return cache_key(
        "hybrid-trust", profile.key, platform, n_requests, seed, anchor,
        rtt_mean, rtt_p99, _nic_cap_rps(profile), model,
    )


def _knee_hybrid(profile, platform, anchor, ladder, streams, n_requests,
                 slo_p99, record: Optional[TrustRecord] = None,
                 record_checked: bool = False) -> float:
    """Hybrid knee search: batched simulation of the knee window,
    validated analytic answers elsewhere.

    Without a cached trust record the window-edge rungs double as spot
    checks: the lowest simulated rung must agree with the analytic
    *accept* for the rungs below to be served analytically, the highest
    with the analytic *reject* for the rungs above.  Any disagreement
    degrades that side back to (batched) simulation, so the knee always
    matches what the pure-simulation ladder would have chosen.  The
    validated edges are stored as a :class:`~repro.core.hybrid.
    TrustRecord` under a model-content key; a later measurement of the
    same model shrinks the window to the rungs strictly inside the
    record, and a window simulation that contradicts the record's
    promise invalidates it and re-runs the full spot-check pass.
    """
    cfg = hybrid.config()
    store = get_cache()
    factors = np.asarray(ladder, dtype=float) / anchor if anchor > 0 else LADDER_FACTORS
    trust_key = _trust_key(profile, platform, n_requests, streams.root_seed,
                           float(anchor))
    if record is None and not record_checked:
        found, cached = store.get(trust_key, count=False)
        if found and isinstance(cached, TrustRecord):
            record = cached
    if record is not None:
        sim_idx = [
            index for index, factor in enumerate(factors)
            if (record.low_factor is None or factor > record.low_factor)
            and (record.high_factor is None or factor < record.high_factor)
        ]
    else:
        sim_idx = [index for index, factor in enumerate(factors)
                   if cfg.sim_window_lo <= factor <= cfg.sim_window_hi]
    if not sim_idx:
        # Degenerate ladder (all rungs outside the window): simulate the
        # rung closest to the anchor so the knee stays simulation-backed.
        sim_idx = [int(np.argmin(np.abs(factors - 1.0)))]

    simulated: Dict[int, RunMetrics] = {}
    # Every rung feeds only its verdict (and, when acceptable, its
    # completed rate) into the knee — except the low window edge of an
    # edge-validation pass, whose p99 goes into the TrustRecord.
    full_index = min(sim_idx) if record is None else None

    def simulate(indices) -> None:
        indices = [i for i in indices if i not in simulated]
        if not indices:
            return
        for index, metrics in zip(
                indices,
                run_ladder(profile, platform, [float(ladder[i]) for i in indices],
                           streams, n_requests,
                           verdict_only=[i != full_index for i in indices])):
            simulated[index] = metrics

    simulate(sim_idx)
    predictions = {
        index: predict_fixed_rate(profile, platform, float(ladder[index]),
                                  n_requests)
        for index in range(len(ladder)) if index not in simulated
    }

    if record is not None:
        # Consuming a cached record: the window rungs are the spot
        # refresh.  A simulated rung disagreeing with the analytic
        # prediction means the record's promise no longer holds —
        # invalidate and redo the full edge-validation pass.
        consistent = all(
            _rung_acceptable(simulated[i], float(ladder[i]), slo_p99)
            == _rung_acceptable(
                predict_fixed_rate(profile, platform, float(ladder[i]),
                                   n_requests),
                float(ladder[i]), slo_p99)
            for i in simulated
        )
        if not consistent:
            store.put(trust_key, None)
            return _knee_hybrid(profile, platform, anchor, ladder, streams,
                                n_requests, slo_p99, record=None,
                                record_checked=True)
    else:
        low_edge, high_edge = min(simulated), max(simulated)
        low_rate, high_rate = float(ladder[low_edge]), float(ladder[high_edge])
        pred_low = predict_fixed_rate(profile, platform, low_rate, n_requests)
        pred_high = predict_fixed_rate(profile, platform, high_rate, n_requests)
        sim_low, sim_high = simulated[low_edge], simulated[high_edge]
        trust_low = (_rung_acceptable(sim_low, low_rate, None)
                     and _rung_acceptable(pred_low, low_rate, None))
        trust_high = (not _rung_acceptable(sim_high, high_rate, None)
                      and not _rung_acceptable(pred_high, high_rate, None))
        p99_rel_err = float("inf")
        if np.isfinite(sim_low.latency_p99) and sim_low.latency_p99 > 0:
            p99_rel_err = abs(sim_low.latency_p99 - pred_low.latency_p99) \
                / sim_low.latency_p99
        p99_trusted = p99_rel_err <= cfg.p99_tolerance
        if slo_p99 is not None and trust_low:
            # Latency gates acceptance below the window: only trust the
            # analytic fill if its p99 model validated *and* every
            # filled rung clears the SLO by the tolerance margin.
            safe = p99_trusted and all(
                predictions[i].latency_p99 * (1.0 + cfg.p99_tolerance)
                <= slo_p99
                for i in predictions if i < low_edge
            )
            trust_low = trust_low and safe
        if not trust_low:
            simulate(range(0, low_edge))
        if not trust_high:
            simulate(range(high_edge + 1, len(ladder)))
        store.put(trust_key, TrustRecord(
            anchor_rps=float(anchor),
            low_factor=float(factors[low_edge]) if trust_low else None,
            high_factor=float(factors[high_edge]) if trust_high else None,
            p99_trusted=p99_trusted,
            p99_rel_err=p99_rel_err,
        ))

    analytic_count = len(ladder) - len(simulated)
    if analytic_count:
        obs_metrics.counter(obs_metrics.PROBES).inc(analytic_count)
        obs_metrics.counter(obs_metrics.ANALYTIC_HITS).inc(analytic_count)
    rung_metrics = [
        simulated.get(index) or predictions[index]
        for index in range(len(ladder))
    ]
    return _select_knee(ladder, rung_metrics, slo_p99)


def sweep_operating_rate(
    profile: FunctionProfile,
    platform: str,
    streams: Optional[RandomStreams] = None,
    n_requests: int = 20_000,
    slo_p99: Optional[float] = None,
    tolerance: float = 0.02,
    warm: bool = True,
    engine: Optional[str] = None,
) -> SweepResult:
    """Probe-verified maximum sustainable rate for one (function, platform).

    Unlike :func:`measure_operating_point`'s fixed 12-rung ladder (kept
    deterministic so the figure numbers are stable), this runs the
    adaptive bisection search of :func:`find_max_sustainable_rate` —
    warm-started from the analytic capacity estimate when ``warm`` is
    True, which typically halves the probe count (the savings show up
    in the CLI footer as ``probe.saved``).

    Under the hybrid engine, probes far enough outside a *previously
    validated* trust region (see :func:`measure_operating_point`) are
    answered analytically; every probe near the boundary — everything
    the bisection actually decides on — is still simulated, so the
    returned rate is identical with the hybrid engine on or off.  If
    the search settles on an analytically answered probe, that rate is
    re-simulated so the reported metrics stay simulation-backed.
    """
    engine = hybrid.resolve_engine(engine)
    streams = streams or RandomStreams()
    estimate = min(
        estimate_capacity_rps(profile, platform, slo_p99), _nic_cap_rps(profile)
    )

    def simulate_at(rate: float) -> RunMetrics:
        return run_fixed_rate(profile, platform, rate, streams, n_requests)

    run_at = simulate_at
    if engine == hybrid.ENGINE_HYBRID:
        anchor = min(estimate_capacity_rps(profile, platform),
                     _nic_cap_rps(profile))
        found, record = get_cache().get(
            _trust_key(profile, platform, n_requests, streams.root_seed,
                       float(anchor)),
            count=False)
        if found and isinstance(record, TrustRecord) and anchor > 0:
            run_at = _trusted_run_at(profile, platform, anchor, record,
                                     slo_p99, simulate_at, n_requests)

    result = find_max_sustainable_rate(
        run_at,
        low_rate=estimate * 0.05,
        high_rate=estimate * 2.0,
        slo_p99=slo_p99,
        tolerance=tolerance,
        warm_start=estimate if warm else None,
    )
    if result.metrics.extra.get("probe.analytic"):
        # The best probe was served analytically (it sat deep inside the
        # trusted region); re-simulate it at the same rate — same
        # substream as the pure-simulation path — so the reported
        # metrics are measurements, not predictions.
        result = SweepResult(
            max_rate=result.max_rate,
            metrics=simulate_at(result.metrics.offered_rate),
            probes=result.probes,
        )
    return result


def _trusted_run_at(profile, platform, anchor, record: TrustRecord,
                    slo_p99, simulate_at, n_requests):
    """A sweep probe that skips simulation deep inside the trust region.

    Acceptance is only answered analytically below the validated low
    edge (minus the rate margin), rejection only above the validated
    high edge (plus the margin); with an SLO bound, a probe is skipped
    only when the analytic p99 is decisively on one side of the bound
    given the recorded model error.  Everything else — in particular
    every rate the bisection narrows onto — is simulated.
    """
    cfg = hybrid.config()

    def run_at(rate: float) -> RunMetrics:
        factor = rate / anchor
        below = (record.low_factor is not None
                 and factor <= record.low_factor * (1.0 - cfg.rate_margin))
        above = (record.high_factor is not None
                 and factor >= record.high_factor * (1.0 + cfg.rate_margin))
        if not below and not above:
            return simulate_at(rate)
        prediction = predict_fixed_rate(profile, platform, rate, n_requests)
        if below and slo_p99 is not None:
            # Latency gates acceptance: skip only when the analytic p99
            # is decisively clear of (or past) the SLO.
            if not record.p99_trusted:
                return simulate_at(rate)
            margin = max(record.p99_rel_err, cfg.p99_tolerance)
            p99 = prediction.latency_p99
            decisive = (p99 * (1.0 + margin) <= slo_p99
                        or p99 * (1.0 - margin) > slo_p99)
            if not decisive:
                return simulate_at(rate)
        obs_metrics.counter(obs_metrics.PROBES).inc()
        obs_metrics.counter(obs_metrics.ANALYTIC_HITS).inc()
        return prediction

    return run_at


# ---------------------------------------------------------------------------
# Pure work units + content-addressed caching
# ---------------------------------------------------------------------------
#
# An operating-point measurement is a pure function of
# (profile_key, platform, seed, samples, n_requests, slo_p99): every RNG
# substream it touches is derived from (seed, "{key}:{platform}:{rate}"),
# names that no other measurement uses, so rebuilding a fresh
# RandomStreams(seed) inside the unit reproduces exactly the draws the
# old shared-registry serial loop produced.  That is what makes these
# functions safe both to fan out across processes and to memoize.


def compute_operating_point(
    profile_key: str,
    platform: str,
    seed: int,
    samples: int,
    n_requests: int,
    slo_p99: Optional[float] = None,
    engine: Optional[str] = None,
) -> OperatingPoint:
    """The picklable work unit behind Fig. 4 rows and fault baselines.

    ``engine`` is resolved at submission time and travels inside the
    unit args (see fig4), so a worker process never depends on an
    inherited process-global engine setting.
    """
    profile = get_profile(profile_key, samples=samples)
    return measure_operating_point(
        profile, platform, RandomStreams(seed), n_requests, slo_p99=slo_p99,
        engine=hybrid.resolve_engine(engine),
    )


def operating_point_cache_key(
    profile_key: str,
    platform: str,
    seed: int,
    samples: int,
    n_requests: int,
    slo_p99: Optional[float] = None,
    engine: Optional[str] = None,
) -> str:
    """Content hash of everything :func:`compute_operating_point` reads.

    The offered rates probed by the ladder are themselves derived from
    (profile_key, samples), so they need no separate key component; the
    cache module salts every key with CODE_VERSION for invalidation.
    The probe engine is part of the key: hybrid and pure-simulation
    measurements are distinct artifacts even when they agree.
    """
    return cache_key(
        "operating-point", profile_key, platform, seed, samples, n_requests,
        slo_p99, hybrid.resolve_engine(engine),
    )


def measure_operating_point_cached(
    profile_key: str,
    platform: str,
    seed: int,
    samples: int,
    n_requests: int,
    slo_p99: Optional[float] = None,
    engine: Optional[str] = None,
) -> OperatingPoint:
    """Memoized operating point for *canonical* profiles.

    Only safe for profiles reachable through ``get_profile`` under the
    global calibration — experiments that perturb calibration in place
    (sensitivity, strategy1) must keep calling
    :func:`measure_operating_point` directly.
    """
    engine = hybrid.resolve_engine(engine)
    store = get_cache()
    key = operating_point_cache_key(
        profile_key, platform, seed, samples, n_requests, slo_p99, engine
    )
    found, point = store.get(key)
    if found:
        return point
    point = compute_operating_point(
        profile_key, platform, seed, samples, n_requests, slo_p99, engine
    )
    store.put(key, point)
    return point


def component_load(
    profile: FunctionProfile, platform: str, completed_rate: float
) -> ComponentLoad:
    """Average component utilization while serving at ``completed_rate``."""
    if platform == ACCEL_PLATFORM:
        per_item = accel_per_item_seconds(profile)
        utilization = min(completed_rate * per_item, 1.0)
        engine = ACCELERATORS[profile.accel_engine]
        staging_util = 0.0
        staging_stack = profile.stack
        if staging_stack is not None:
            snic = PLATFORMS["snic-cpu"]
            staging_per_packet = snic.stack_seconds(
                staging_stack, int(profile.wire_bytes)
            )
            staging_util = min(
                completed_rate * staging_per_packet / engine.staging_cores, 1.0
            )
        spin = POWER.dpdk_spin_fraction if profile.stack == "dpdk" else 0.0
        staging_busy = engine.staging_cores * (spin + (1 - spin) * staging_util)
        return ComponentLoad(
            snic_busy_cores=staging_busy,
            accel_utilization={profile.accel_engine: utilization},
            accel_engaged=frozenset({profile.accel_engine}),
        )

    services = cpu_service_seconds(profile, platform)
    cores = cpu_cores(profile, platform)
    utilization = min(completed_rate * float(np.mean(services)) / cores, 1.0)
    spin = POWER.dpdk_spin_fraction if profile.stack == "dpdk" else 0.0
    busy = cores * (spin + (1 - spin) * utilization)
    if platform == "host":
        return ComponentLoad(host_busy_cores=busy * profile.host_power_scale)
    return ComponentLoad(snic_busy_cores=busy)
