"""Fast-path queueing simulation for per-packet service.

Driving a 100 Gbps interface means tens of millions of packets per second;
simulating each as a kernel event would make parameter sweeps intractable.
Two structural facts let us do better without losing fidelity:

* Packet work on a multi-core platform is sharded per core by RSS — each
  core owns an independent FIFO.  A c-core system at offered rate R is
  statistically c independent single-server queues at rate R/c, so we
  simulate *one shard* exactly (Lindley's recursion) and measure it.
* Accelerators are single batch servers; we simulate their batching
  behaviour directly.

Both paths produce per-request sojourn times from which the same
percentile/throughput metrics as the event-driven path are computed.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from . import trace
from .metrics import RunMetrics, summarize_samples

ServiceSampler = Callable[[np.random.Generator, int], np.ndarray]

# Latency-attribution component names.  Each QueueOutcome carries a set
# of per-request component arrays that sum (exactly) to its sojourns;
# the attribution report in EXPERIMENTS.md is built from these.
COMP_QUEUE_WAIT = "queue_wait"      # time in FIFO before service begins
COMP_SERVICE = "service"            # time being served (whole batch span
                                    # on the accelerator path)
COMP_BATCH_WAIT = "batch_wait"      # waiting for a batch to form/dispatch
COMP_STACK_RTT = "stack_rtt"        # fixed network-stack RTT floor
COMP_STALL = "stall"                # retry/fault stall (faults study)
COMPONENTS = (COMP_QUEUE_WAIT, COMP_SERVICE, COMP_BATCH_WAIT,
              COMP_STACK_RTT, COMP_STALL)
# Share of a run's first requests left out of its latency summaries.
WARMUP_FRACTION = 0.1


# Reusable per-thread scratch for the consumed `increments` input of
# :func:`_seeded_lindley`.  Fresh 150+ KiB allocations cost real page
# faults every probe; the scratch never escapes a kernel call, so
# reusing it is safe (per-thread: no sharing across concurrent callers).
_scratch = threading.local()


def _increment_buffer(n: int) -> np.ndarray:
    buf = getattr(_scratch, "buf", None)
    if buf is None or len(buf) < n:
        buf = np.empty(max(n, 1024))
        _scratch.buf = buf
    return buf[:n]


def lindley_waits(interarrivals: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Waiting times (time in queue, excluding service) of a G/G/1 queue.

    ``interarrivals[i]`` is the gap before customer i (the first gap is from
    t=0); ``services[i]`` is customer i's service demand.

    Exact O(n) closed form of Lindley's recursion, no Python loop:
    with increments X_i = services[i-1] - interarrivals[i] and partial
    sums C_n = sum_{k<=n} X_k (C_0 = 0),

        W_n = max(0, W_{n-1} + X_n) = C_n - min_{k<=n} C_k.

    ``lindley_waits_reference`` is the retained scalar oracle; the
    property tests assert element-wise agreement to 1e-12.
    """
    interarrivals = np.asarray(interarrivals, dtype=float)
    services = np.asarray(services, dtype=float)
    if interarrivals.shape != services.shape:
        raise ValueError("interarrivals and services must have equal length")
    n = len(services)
    if n == 0:
        return np.empty(0)
    increments = _increment_buffer(n)
    increments[0] = 0.0
    np.subtract(services[:-1], interarrivals[1:], out=increments[1:])
    # In-place cumsum and fused subtraction: one fresh buffer total.
    # C_1 = 0 keeps C_0 = 0 inside the running minimum, so the
    # subtraction is the max(0, .) clamp of the sequential recursion.
    cumulative = np.cumsum(increments, out=increments)
    floor = np.minimum.accumulate(cumulative)
    np.subtract(cumulative, floor, out=floor)
    return floor


def lindley_waits_reference(
    interarrivals: np.ndarray, services: np.ndarray
) -> np.ndarray:
    """Scalar Lindley recursion: the oracle the vectorized kernel must match."""
    if np.shape(interarrivals) != np.shape(services):
        raise ValueError("interarrivals and services must have equal length")
    n = len(services)
    waits = np.empty(n)
    wait = 0.0
    for i in range(n):
        if i > 0:
            wait = max(0.0, wait + services[i - 1] - interarrivals[i])
        waits[i] = wait
    return waits


def _seeded_lindley(increments: np.ndarray, initial: float) -> np.ndarray:
    """Lindley waits of one block given the entering backlog ``initial``.

    ``increments[j]`` is the backlog change at block element j *before*
    the max(0, .) clamp; the closed form extends to a seeded start:

        w_j = C_j - min(min_{0<=k<=j} C_k, -initial)    (C_0 = 0).

    Preconditions (both call sites guarantee them): ``initial >= 0`` and
    ``increments[0] <= 0``, so C_1 <= 0 keeps C_0 = 0 inside the running
    minimum for free.  ``increments`` is consumed (cumsum'd in place).
    """
    cumulative = np.cumsum(increments, out=increments)
    floor = np.minimum.accumulate(cumulative)
    if initial > 0.0:
        np.minimum(floor, -initial, out=floor)
    np.subtract(cumulative, floor, out=floor)
    return floor


# Bounded-buffer kernel tuning: block width of the optimistic fixed
# point, and how many refinement passes a block gets before it falls
# back to the exact scalar recursion (heavy sustained overload).
_DROP_BLOCK = 4096
_DROP_MAX_PASSES = 8
# A block whose first pass puts more violators than this in one
# zero-wait segment goes straight to the scalar recursion: measured over
# the `--engine sim report` probes without routing, every block that
# exhausted its passes showed at least 31 (median 3807), blocks that
# converged a median of 11.
_ROUTE_VIOLATORS = 30
# Relative slack on the verdict-only bound (see drop_budget_for): far above
# the float rounding of the served-rate arithmetic, far below any
# difference a rung verdict can hinge on.
VERDICT_MARGIN = 1e-9


class VerdictOnlyError(RuntimeError):
    """A measured quantity was read from a verdict-only :class:`Overloaded`."""


@dataclass(frozen=True)
class Overloaded:
    """A run stopped early because its drops already prove overload.

    Returned instead of a :class:`QueueOutcome` (and, one layer up,
    instead of a ``RunMetrics``) when the caller passed a served-rate
    floor and the drops exceeded the :func:`drop_budget_for` it implies.
    The verdict — the run cannot serve the floor — is exact; nothing
    else is known.  ``dropped`` is the drop count when the run stopped
    (a lower bound on the full run's), and reading any other field,
    latency or throughput alike, raises :class:`VerdictOnlyError`, so a
    verdict-only result can never leak a number into output.
    """

    requests: int
    dropped: int

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        raise VerdictOnlyError(
            f"{name!r} of a verdict-only run is unknown: it stopped after "
            f"{self.dropped} of {self.requests} requests dropped")


class VerdictRecord:
    """A verdict-only run that ran to the end.

    Returned instead of a ``RunMetrics`` by a knee rung whose caller
    reads only its verdict.  ``offered_rate``, ``completed_rate`` and
    ``dropped`` are exactly :func:`outcome_to_metrics`'s, and
    ``latency_p99`` is computed from the same kept sojourns on first
    read (an SLO-bound knee or a trace reads it); any other field raises
    :class:`VerdictOnlyError`, as :class:`Overloaded` does.
    """

    __slots__ = ("offered_rate", "completed_rate", "dropped", "_kept", "_p99")

    def __init__(self, offered_rate: float, completed_rate: float,
                 dropped: int, kept_sojourns: np.ndarray) -> None:
        self.offered_rate = offered_rate
        self.completed_rate = completed_rate
        self.dropped = dropped
        self._kept = kept_sojourns
        self._p99: Optional[float] = None

    @property
    def latency_p99(self) -> float:
        if self._p99 is None:
            self._p99 = (summarize_samples(self._kept).p99 if self._kept.size
                         else float("inf"))
        return self._p99

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        raise VerdictOnlyError(
            f"{name!r} of a verdict-only run is not computed: only "
            f"offered_rate, completed_rate, dropped and latency_p99 are")


def drop_budget_for(
    arrivals: np.ndarray, services: np.ndarray, min_served_rate: float
) -> Optional[int]:
    """Most drops a bounded-buffer run may see and still serve
    ``min_served_rate`` (kept requests per second of kept arrival span).

    Let the run have ``n`` arrivals, last arrival ``a_n`` and largest
    service ``s_max``.  Its last kept arrival ``a_k`` satisfies
    ``a_k > a_n - s_max``: every later arrival was dropped, so the
    backlog ``w_k + s_k - (a_n - a_k)`` still exceeded the limit at
    ``a_n`` while the kept ``w_k`` did not, forcing ``a_n - a_k < s_k``.
    With ``D`` drops the served rate ``(n - D) / a_k`` is therefore below
    ``(n - D) / (a_n - s_max)``, and once that bound falls under the
    floor (less a :data:`VERDICT_MARGIN` of relative slack) no
    continuation of the run can reach it.  Returns the largest ``D`` for
    which the bound still allows the floor, or None when ``a_n <= s_max``
    and the bound says nothing.
    """
    n = len(arrivals)
    if n == 0:
        return None
    span = float(arrivals[-1]) - float(np.max(services))
    if span <= 0.0:
        return None
    # D > n - threshold  <=>  (n - D) < threshold.
    threshold = min_served_rate * (1.0 - VERDICT_MARGIN) * span
    return math.floor(n - threshold)


def served_rate_bound(
    n: int, last_arrival: float, cores: int = 1, max_service: float = 0.0
) -> float:
    """An upper bound, with :data:`VERDICT_MARGIN` of relative slack, on
    the completed rate a run of ``n`` arrivals whose last arrives at
    ``last_arrival`` can report, before it is simulated.

    A bounded-buffer shard's last kept arrival is later than ``a_n -
    s_max`` (see :func:`drop_budget_for`), so its served rate is below
    ``n / (a_n - s_max)``, and ``cores`` shards serve ``cores`` times
    that; pass the largest service as ``max_service``.  A run that drops
    nothing — the batch server, ``max_service`` 0 — serves exactly
    ``n / a_n``.  The overload cap of the completed rate and a caller's
    wire-rate or staging clip only lower it.  Infinite when ``a_n <=
    s_max``, where the argument says nothing.
    """
    span = last_arrival - max_service
    if span <= 0.0:
        return float("inf")
    return cores * n / span * (1.0 + VERDICT_MARGIN)


def bounded_waits_reference(
    arrivals: np.ndarray,
    services: np.ndarray,
    queue_limit: float,
    initial_backlog: float = 0.0,
    previous_arrival: float = 0.0,
    drop_budget: Optional[int] = None,
):
    """Scalar bounded-buffer recursion (the drop-path oracle).

    Walks arrivals in order, draining ``backlog`` by elapsed time; an
    arrival finding more than ``queue_limit`` seconds of unfinished work
    is dropped, a kept arrival waits the backlog and adds its service.
    Returns ``(kept_mask, waits_of_kept, backlog, last_arrival)`` so
    the vectorized kernel can resume a block from this exact state — or,
    when ``drop_budget`` is given, an :class:`Overloaded` verdict at the
    first drop past it.
    """
    arrivals = np.asarray(arrivals, dtype=float)
    n = len(arrivals)
    backlog = float(initial_backlog)
    previous = float(previous_arrival)
    if n == 0:
        return np.zeros(0, dtype=bool), np.empty(0), backlog, previous
    # The elapsed times ``arrival - previous`` are the same IEEE
    # subtractions whether numpy or the loop makes them, and iterating
    # plain-float lists avoids boxing a np.float64 per access, so the
    # results are bit-identical to the indexed loop.
    gaps = np.empty(n)
    gaps[0] = arrivals[0] - previous
    np.subtract(arrivals[1:], arrivals[:-1], out=gaps[1:])
    budget = n if drop_budget is None else drop_budget
    drops = 0
    # Every arrival's drained backlog, kept or not: the keep mask is the
    # loop's own ``> queue_limit`` test redone on the same doubles.
    seen = []
    append = seen.append
    service_list = np.asarray(services, dtype=float).tolist()
    for gap, service in zip(gaps.tolist(), service_list):
        backlog -= gap
        # Exactly max(0.0, backlog), NaN and -0.0 included (max keeps its
        # first argument unless the second is strictly greater), without
        # the builtin call — DESIGN.md §9's exact-clamp rule.
        backlog = backlog if backlog > 0.0 else 0.0
        append(backlog)
        if backlog > queue_limit:
            drops += 1
            if drops > budget:
                return Overloaded(requests=n, dropped=drops)
        else:
            backlog += service
    seen = np.array(seen)
    kept = ~(seen > queue_limit)
    return kept, seen[kept], backlog, float(arrivals[-1])


def bounded_waits(
    arrivals: np.ndarray,
    services: np.ndarray,
    queue_limit: float,
    drop_budget: Optional[int] = None,
):
    """Vectorized bounded-buffer (queue-limit) drop kernel.

    Exact block fixed point: each block's waits are computed with the
    closed-form Lindley kernel assuming no drops inside the block; an
    overflowing block is refined by removing, per zero-backlog segment,
    its *first* violator (whose computed wait is provably exact — every
    earlier request in the segment is a certain keep) and recomputing.
    Almost-never-dropping probes converge in one pass.  A block whose
    first pass puts more than ``_ROUTE_VIOLATORS`` violators in one
    segment (sustained deep overload), or that still overflows after
    ``_DROP_MAX_PASSES``, is finished by the scalar oracle seeded with
    the exact carry-in, so the result always matches
    ``bounded_waits_reference`` element-wise.

    Returns ``(kept_mask, waits_of_kept)`` — or, when ``drop_budget`` is
    given and the drops exceed it, an :class:`Overloaded` verdict without
    simulating the rest: a scalar block stops at the first drop past the
    budget, a fixed-point block at its end.
    """
    n = len(arrivals)
    if n == 0:
        return np.zeros(0, dtype=bool), np.empty(0)
    if queue_limit < 0:
        # A drained backlog is never negative, so everything overflows.
        return np.zeros(n, dtype=bool), np.empty(0)
    # Optimistic whole-array attempt first: an acceptable rate probe
    # drops (almost) nothing, and one closed-form pass both proves it
    # and *is* the answer — the block fixed point below only runs when
    # the no-drop waits actually overflow somewhere.
    increments = _increment_buffer(n)
    increments[0] = -arrivals[0]
    if n > 1:
        # services[:-1] - diff(arrivals), built without temporaries.
        np.subtract(arrivals[:-1], arrivals[1:], out=increments[1:])
        increments[1:] += services[:-1]
    optimistic = _seeded_lindley(increments, 0.0)
    if optimistic.max() <= queue_limit:
        return np.ones(n, dtype=bool), optimistic
    kept = np.ones(n, dtype=bool)
    kept_waits = []
    backlog = 0.0
    previous = 0.0
    dropped = 0
    for start in range(0, n, _DROP_BLOCK):
        stop = min(start + _DROP_BLOCK, n)
        block_kept = kept[start:stop]
        result = _bounded_block(
            arrivals[start:stop], services[start:stop], queue_limit,
            backlog, previous, block_kept,
            None if drop_budget is None else drop_budget - dropped,
        )
        if isinstance(result, Overloaded):
            return Overloaded(requests=n, dropped=dropped + result.dropped)
        block_waits, backlog, previous = result
        kept_waits.append(block_waits)
        if drop_budget is not None:
            dropped += len(block_kept) - int(np.count_nonzero(block_kept))
            if dropped > drop_budget:
                return Overloaded(requests=n, dropped=dropped)
    return kept, np.concatenate(kept_waits)


def _bounded_block(
    arrivals: np.ndarray,
    services: np.ndarray,
    queue_limit: float,
    backlog: float,
    previous: float,
    kept_out: np.ndarray,
    drop_budget: Optional[int],
):
    """One block of the bounded-buffer fixed point (see bounded_waits).

    Clears the flags of dropped requests in ``kept_out`` (which arrives
    all True) and returns the kept requests' waits with the exact
    ``(backlog, last_arrival)`` carry, or the scalar oracle's
    :class:`Overloaded` once its drops pass ``drop_budget``.
    """
    m = len(arrivals)
    survivors = np.arange(m)
    # The first pass keeps every request: read the block views directly.
    surv_arrivals, surv_services = arrivals, services
    for attempt in range(_DROP_MAX_PASSES):
        if attempt:
            surv_arrivals = arrivals[survivors]
            surv_services = services[survivors]
        # Backlog drains by wall time between consecutive *arrivals*
        # (dropped requests still let time pass), so increments use
        # arrival-time differences, exactly like the scalar oracle.
        # services[:-1] - diff(arrivals), built without temporaries
        # (a - b is exactly -(b - a) in IEEE arithmetic).
        increments = np.empty(len(surv_arrivals))
        increments[0] = -(surv_arrivals[0] - previous)
        np.subtract(surv_arrivals[:-1], surv_arrivals[1:], out=increments[1:])
        increments[1:] += surv_services[:-1]
        waits = _seeded_lindley(increments, backlog)
        violators = waits > queue_limit
        if not violators.any():
            if attempt:
                kept_out[:] = False
                kept_out[survivors] = True
            # Drain past any trailing dropped arrivals so the carry state
            # matches the oracle's (backlog at the block's last arrival).
            carry_backlog = waits[-1] + surv_services[-1]
            last = float(arrivals[-1])
            carry_backlog = max(0.0, carry_backlog - (last - float(surv_arrivals[-1])))
            return waits, carry_backlog, last
        # Zero-wait positions are exact resets: the optimistic wait is
        # an overestimate, so a computed 0 pins the true backlog to 0
        # and decouples everything after it from earlier drop choices.
        # Within each reset-delimited segment only the FIRST violator's
        # wait is known exact (all earlier segment members are certain
        # keeps); drop exactly those and recompute the shrunk block.
        violator_positions = np.flatnonzero(violators)
        # A violator's segment is the count of resets at or before it.
        violator_segments = np.searchsorted(
            np.flatnonzero(waits == 0.0), violator_positions, side="right")
        first_in_segment = np.empty(len(violator_positions), dtype=bool)
        first_in_segment[0] = True
        first_in_segment[1:] = violator_segments[1:] != violator_segments[:-1]
        firsts = np.flatnonzero(first_in_segment)
        if attempt == 0:
            # Violators in the busiest segment (segments run from one
            # first violator to the next).
            busiest = len(violator_positions) - firsts[-1]
            if len(firsts) > 1:
                busiest = max(busiest, (firsts[1:] - firsts[:-1]).max())
            if busiest > _ROUTE_VIOLATORS:
                break
        survivors = np.delete(survivors, violator_positions[firsts])
        if len(survivors) == 0:
            kept_out[:] = False
            last = float(arrivals[-1])
            drained = max(0.0, backlog - (last - previous))
            return np.empty(0), drained, last
    # Sustained deep overload (routed on the first pass, or still
    # overflowing after the last): the fixed point sheds one drop per
    # segment per pass, so the exact scalar recursion finishes the block
    # from its (exact) entry state instead.
    result = bounded_waits_reference(
        arrivals, services, queue_limit, backlog, previous, drop_budget)
    if isinstance(result, Overloaded):
        return result
    kept_mask, block_waits, backlog, previous = result
    kept_out[:] = kept_mask
    return block_waits, backlog, previous


@dataclass
class QueueOutcome:
    """Raw per-request results of a fast-path queue simulation."""

    sojourns: np.ndarray  # seconds, queue wait + service
    services: np.ndarray
    arrivals: np.ndarray
    dropped: int = 0
    # Per-request latency decomposition (COMP_* keys).  Invariant: the
    # component arrays sum element-wise to ``sojourns``; code that adds
    # latency to ``sojourns`` must add a matching component (see
    # ``add_component``).
    components: Dict[str, np.ndarray] = field(default_factory=dict)

    def completions(self) -> np.ndarray:
        return self.arrivals + self.sojourns

    def add_component(self, name: str, values: np.ndarray) -> None:
        """Add latency to every request, keeping attribution consistent."""
        self.sojourns = self.sojourns + values
        if name in self.components:
            self.components[name] = self.components[name] + values
        else:
            self.components[name] = np.asarray(values, dtype=float)

    def component_residual(self) -> float:
        """Max |sojourn - sum(components)|; ~0 when attribution is exact."""
        if not self.components or len(self.sojourns) == 0:
            return 0.0
        total = np.zeros_like(self.sojourns)
        for values in self.components.values():
            total = total + values
        return float(np.max(np.abs(self.sojourns - total)))


def simulate_gg1(
    rate: float,
    service_sampler: ServiceSampler,
    n_requests: int,
    rng: np.random.Generator,
    arrival_cv: float = 1.0,
    queue_limit: Optional[float] = None,
    min_served_rate: Optional[float] = None,
):
    """Simulate a single FIFO server fed at ``rate`` requests/second.

    ``arrival_cv`` selects the arrival process: 0 gives a deterministic
    (paced) stream, 1 gives Poisson; intermediate values use a gamma
    renewal process with that coefficient of variation.

    ``queue_limit`` (seconds of backlog) drops requests arriving when the
    unfinished work exceeds the limit — modeling finite NIC/socket buffers
    so overload shows up as loss rather than unbounded latency.

    ``min_served_rate`` (with ``queue_limit``) asks only for a verdict
    once the run provably cannot serve that rate: the bounded kernel
    stops at the :func:`drop_budget_for` and the result is
    :class:`Overloaded`.  The draws consumed are the same either way.
    """
    if rate <= 0:
        raise ValueError("rate must be positive")
    mean_gap = 1.0 / rate
    if arrival_cv == 0.0:
        gaps = np.full(n_requests, mean_gap)
    elif arrival_cv == 1.0:
        gaps = rng.exponential(mean_gap, size=n_requests)
    else:
        shape = 1.0 / (arrival_cv**2)
        gaps = rng.gamma(shape, mean_gap / shape, size=n_requests)
    arrivals = np.cumsum(gaps)
    services = np.asarray(service_sampler(rng, n_requests), dtype=float)
    if services.shape != (n_requests,):
        raise ValueError("service sampler returned wrong shape")

    if queue_limit is None:
        waits = lindley_waits(gaps, services)
        outcome = QueueOutcome(
            sojourns=waits + services, services=services, arrivals=arrivals,
            components={COMP_QUEUE_WAIT: waits, COMP_SERVICE: services},
        )
        if trace.TRACING:
            _emit_queue_series(outcome, dropped_total=0)
        return outcome

    # With a buffer bound we track unfinished work and drop on overflow
    # (vectorized block fixed point; bounded_waits_reference is the
    # retained scalar oracle).
    budget = None
    if min_served_rate is not None:
        budget = drop_budget_for(arrivals, services, min_served_rate)
    result = bounded_waits(arrivals, services, queue_limit, budget)
    if isinstance(result, Overloaded):
        return result
    kept_mask, waits = result
    dropped = int(n_requests - kept_mask.sum())
    if dropped:
        kept = services[kept_mask]
        kept_arrivals = arrivals[kept_mask]
    else:
        kept = services
        kept_arrivals = arrivals
    outcome = QueueOutcome(
        sojourns=waits + kept,
        services=kept,
        arrivals=kept_arrivals,
        dropped=dropped,
        components={COMP_QUEUE_WAIT: waits, COMP_SERVICE: kept},
    )
    if trace.TRACING:
        _emit_queue_series(outcome, dropped_total=outcome.dropped)
    return outcome


def simulate_sharded(
    rate: float,
    cores: int,
    service_sampler: ServiceSampler,
    n_requests: int,
    rng: np.random.Generator,
    arrival_cv: float = 1.0,
    queue_limit: Optional[float] = None,
    min_served_rate: Optional[float] = None,
):
    """Simulate one RSS shard of a ``cores``-way packet service.

    The shard sees rate/cores arrivals; its latency distribution equals the
    system's (all shards are exchangeable), and system throughput is the
    shard's times ``cores``.  ``min_served_rate`` is a *system* rate,
    shared out like ``rate`` (see :func:`simulate_gg1`).
    """
    if cores < 1:
        raise ValueError("cores must be >= 1")
    shard_floor = None if min_served_rate is None else min_served_rate / cores
    return simulate_gg1(
        rate / cores, service_sampler, n_requests, rng, arrival_cv, queue_limit,
        shard_floor,
    )


def lindley_waits_stacked(gaps: np.ndarray, services: np.ndarray) -> np.ndarray:
    """Closed-form Lindley waits for a stack of ladders sharing services.

    ``gaps`` is ``(L, n)`` — one row of interarrival gaps per rate rung —
    and ``services`` is the shared ``(n,)`` service array.  Row ``r`` of
    the result equals ``lindley_waits(gaps[r], services)``: the cumsum /
    running-minimum closed form applies along axis 1 unchanged, so a
    whole rate ladder costs one vectorized pass instead of L dispatches.
    """
    gaps = np.asarray(gaps, dtype=float)
    services = np.asarray(services, dtype=float)
    if gaps.ndim != 2 or gaps.shape[1] != services.shape[0]:
        raise ValueError("gaps must be (L, n) with services of length n")
    ladder, n = gaps.shape
    if n == 0:
        return np.empty((ladder, 0))
    increments = np.empty((ladder, n))
    increments[:, 0] = 0.0
    np.subtract(services[None, :-1], gaps[:, 1:], out=increments[:, 1:])
    cumulative = np.cumsum(increments, axis=1, out=increments)
    floor = np.minimum.accumulate(cumulative, axis=1)
    return cumulative - floor


def draw_unit_gaps(
    n_requests: int, rng: np.random.Generator, arrival_cv: float = 1.0
) -> np.ndarray:
    """Rate-free interarrival gaps (mean 1); divide by a rate to use.

    Exploits the scale family of every supported arrival process —
    deterministic, exponential, and gamma gaps all scale linearly in the
    mean gap — so one draw serves every rung of a ladder.
    """
    if arrival_cv == 0.0:
        return np.ones(n_requests)
    if arrival_cv == 1.0:
        return rng.exponential(1.0, size=n_requests)
    shape = 1.0 / (arrival_cv**2)
    return rng.gamma(shape, 1.0 / shape, size=n_requests)


def _ladder_rates(rates) -> np.ndarray:
    rates = np.asarray(rates, dtype=float)
    if rates.ndim != 1 or len(rates) == 0:
        raise ValueError("rates must be a non-empty 1-D sequence")
    if np.any(rates <= 0):
        raise ValueError("rates must be positive")
    return rates


def simulate_gg1_ladder(
    rates,
    unit_gaps: np.ndarray,
    services: np.ndarray,
    queue_limit: Optional[float] = None,
    min_served_rates=None,
) -> list:
    """Simulate a whole rate ladder against one shared set of draws.

    ``unit_gaps`` (from :func:`draw_unit_gaps`) and ``services`` are
    drawn once by the caller and shared by every rung (``rates[r]``
    scales the gaps); the no-drop waits of all rungs are computed in a
    single stacked Lindley pass and only rungs whose optimistic waits
    overflow ``queue_limit`` pay the per-row bounded-buffer fixed point.
    Returns one :class:`QueueOutcome` per rate, same semantics as
    per-rate :func:`simulate_gg1` calls (over different, shared, draws).
    ``min_served_rates`` gives each rung an optional served-rate floor
    (None entries simulate in full); a rung that provably misses its
    floor comes back :class:`Overloaded`.  Every row is computed alone,
    so a ladder split over several calls on the same draws gives the
    same rungs bit for bit.
    """
    rates = _ladder_rates(rates)
    n_requests = len(unit_gaps)
    services = np.asarray(services, dtype=float)
    if services.shape != (n_requests,):
        raise ValueError("services must match the gaps' length")
    gaps = unit_gaps[None, :] / rates[:, None]
    arrivals = np.cumsum(gaps, axis=1)
    waits = lindley_waits_stacked(gaps, services)
    outcomes = []
    for row in range(len(rates)):
        if queue_limit is None or (len(waits[row]) and
                                   waits[row].max() <= queue_limit):
            outcome = QueueOutcome(
                sojourns=waits[row] + services,
                services=services,
                arrivals=arrivals[row],
                components={COMP_QUEUE_WAIT: waits[row],
                            COMP_SERVICE: services},
            )
        else:
            budget = None
            if min_served_rates is not None and min_served_rates[row] is not None:
                budget = drop_budget_for(arrivals[row], services,
                                         min_served_rates[row])
            result = bounded_waits(arrivals[row], services, queue_limit, budget)
            if isinstance(result, Overloaded):
                outcomes.append(result)
                continue
            kept_mask, kept_waits = result
            dropped = int(n_requests - kept_mask.sum())
            kept = services[kept_mask] if dropped else services
            kept_arrivals = arrivals[row][kept_mask] if dropped else arrivals[row]
            outcome = QueueOutcome(
                sojourns=kept_waits + kept,
                services=kept,
                arrivals=kept_arrivals,
                dropped=dropped,
                components={COMP_QUEUE_WAIT: kept_waits, COMP_SERVICE: kept},
            )
        if trace.TRACING:
            _emit_queue_series(outcome, dropped_total=outcome.dropped)
        outcomes.append(outcome)
    return outcomes


def simulate_sharded_ladder(
    rates,
    cores: int,
    unit_gaps: np.ndarray,
    services: np.ndarray,
    queue_limit: Optional[float] = None,
    min_served_rates=None,
) -> list:
    """Ladder variant of :func:`simulate_sharded`: one shard per rung,
    every rung sharing the same draws (``min_served_rates`` are system
    rates, shared out like ``rates``)."""
    if cores < 1:
        raise ValueError("cores must be >= 1")
    shard_rates = np.asarray(rates, dtype=float) / cores
    shard_floors = None
    if min_served_rates is not None:
        shard_floors = [None if floor is None else floor / cores
                        for floor in min_served_rates]
    return simulate_gg1_ladder(
        shard_rates, unit_gaps, services, queue_limit, shard_floors,
    )


def simulate_batch_server(
    rate: float,
    n_requests: int,
    rng: np.random.Generator,
    batch_size: int,
    batch_timeout: float,
    setup_time: float,
    per_item_time: float,
    arrival_cv: float = 1.0,
) -> QueueOutcome:
    """Simulate an accelerator-style batch server.

    Items accumulate until ``batch_size`` are waiting or ``batch_timeout``
    elapses since the first queued item, then the whole batch is served in
    ``setup_time + k * per_item_time``.  This is how the BlueField-2 REM and
    compression engines are driven through DOCA (§2.2): the SNIC CPU stages
    buffers and submits multi-buffer tasks.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    arrivals = np.cumsum(_batch_gaps(rate, n_requests, rng, arrival_cv))
    return _batch_outcome_from_arrivals(
        arrivals, batch_size, batch_timeout, setup_time, per_item_time
    )


def simulate_batch_server_ladder(
    rates,
    unit_arrivals: np.ndarray,
    batch_size: int,
    batch_timeout: float,
    setup_time: float,
    per_item_time: float,
) -> list:
    """Ladder variant of :func:`simulate_batch_server`.

    ``unit_arrivals`` is the prefix sum of one unit-mean gap draw
    (:func:`draw_unit_gaps`), shared by every rung: arrival times scale
    linearly in the mean gap.  The batch chaining itself stays per-rung
    since dispatch boundaries depend on the absolute arrival times.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return [
        _batch_outcome_from_arrivals(
            unit_arrivals / rate, batch_size, batch_timeout,
            setup_time, per_item_time,
        )
        for rate in _ladder_rates(rates)
    ]


def _batch_outcome_from_arrivals(
    arrivals: np.ndarray,
    batch_size: int,
    batch_timeout: float,
    setup_time: float,
    per_item_time: float,
) -> QueueOutcome:
    counts, dispatches, spans, finishes = _batch_schedule(
        arrivals, batch_size, batch_timeout, setup_time, per_item_time
    )
    # Payload arrays in one shot: every member of a batch shares its
    # dispatch/finish/span, so the per-batch columns expand with repeat.
    counts_arr = np.asarray(counts, dtype=np.intp)
    dispatch_arr = np.repeat(dispatches, counts_arr)
    sojourns = np.repeat(finishes, counts_arr) - arrivals
    services = np.repeat(setup_time / counts_arr + per_item_time, counts_arr)
    # Attribution: a request waits for its batch to form/dispatch,
    # then experiences the full batch service span.
    batch_waits = dispatch_arr - arrivals
    service_spans = np.repeat(spans, counts_arr)

    outcome = QueueOutcome(
        sojourns=sojourns, services=services, arrivals=arrivals,
        components={COMP_BATCH_WAIT: batch_waits, COMP_SERVICE: service_spans},
    )
    if trace.TRACING:
        _emit_batch_series(list(zip(dispatches, counts, spans)))
        _emit_queue_series(outcome, dropped_total=0)
    return outcome


def _batch_gaps(
    rate: float, n_requests: int, rng: np.random.Generator, arrival_cv: float
) -> np.ndarray:
    """Arrival gaps for the batch server (shared with the reference)."""
    mean_gap = 1.0 / rate
    if arrival_cv == 0.0:
        return np.full(n_requests, mean_gap)
    shape = 1.0 / max(arrival_cv, 1e-9) ** 2
    return (
        rng.exponential(mean_gap, size=n_requests)
        if arrival_cv == 1.0
        else rng.gamma(shape, mean_gap / shape, size=n_requests)
    )


def _batch_schedule(
    arrivals: np.ndarray,
    batch_size: int,
    batch_timeout: float,
    setup_time: float,
    per_item_time: float,
) -> tuple:
    """Batch boundaries, dispatch and finish times for every batch.

    The timeout cut of every *potential* batch start is one vectorized
    ``searchsorted`` over the arrival prefix (`timeout-end[i]` = first
    arrival past `arrivals[i] + batch_timeout`); chaining the batches is
    then O(1) per batch on plain Python floats — bisect only when a
    busy engine lets late arrivals join a timed-out batch.  Arithmetic
    is identical to the retained reference loop, so dispatch/finish
    times match it bit for bit.
    """
    n = len(arrivals)
    timeout_end = np.searchsorted(
        arrivals, arrivals + batch_timeout, side="right"
    ).tolist()
    arr = arrivals.tolist()
    counts: list = []
    dispatches: list = []
    spans: list = []
    finishes: list = []
    server_free_at = 0.0
    index = 0
    while index < n:
        end = min(index + batch_size, max(timeout_end[index], index + 1))
        if end - index >= batch_size:
            # Batch filled: dispatch as soon as the last member arrived and
            # the engine is free.
            last_arrival = arr[end - 1]
            dispatch = last_arrival if last_arrival > server_free_at else server_free_at
        else:
            # Timeout-driven dispatch; while the engine is still busy past
            # the deadline, late arrivals may still join (up to batch_size).
            deadline = arr[index] + batch_timeout
            dispatch = deadline if deadline > server_free_at else server_free_at
            if dispatch > deadline and end < n:
                end = min(index + batch_size,
                          bisect_right(arr, dispatch, end, n))
        batch = end - index
        span = setup_time + batch * per_item_time
        finish = dispatch + span
        counts.append(batch)
        dispatches.append(dispatch)
        spans.append(span)
        finishes.append(finish)
        server_free_at = finish
        index = end
    return counts, dispatches, spans, finishes


def simulate_batch_server_reference(
    rate: float,
    n_requests: int,
    rng: np.random.Generator,
    batch_size: int,
    batch_timeout: float,
    setup_time: float,
    per_item_time: float,
    arrival_cv: float = 1.0,
) -> QueueOutcome:
    """Scalar batch-server loop: the oracle the vectorized path must match."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    arrivals = np.cumsum(_batch_gaps(rate, n_requests, rng, arrival_cv))
    sojourns = np.empty(n_requests)
    services = np.empty(n_requests)
    batch_waits = np.empty(n_requests)
    service_spans = np.empty(n_requests)

    server_free_at = 0.0
    index = 0
    while index < n_requests:
        deadline = arrivals[index] + batch_timeout
        end = index + 1
        while (
            end < n_requests
            and end - index < batch_size
            and arrivals[end] <= deadline
        ):
            end += 1
        if end - index >= batch_size:
            dispatch = max(arrivals[end - 1], server_free_at)
        else:
            dispatch = max(deadline, server_free_at)
            while (
                end < n_requests
                and end - index < batch_size
                and arrivals[end] <= dispatch
            ):
                end += 1
        batch = end - index
        span = setup_time + batch * per_item_time
        finish = dispatch + span
        sojourns[index:end] = finish - arrivals[index:end]
        services[index:end] = setup_time / batch + per_item_time
        batch_waits[index:end] = dispatch - arrivals[index:end]
        service_spans[index:end] = span
        server_free_at = finish
        index = end

    return QueueOutcome(
        sojourns=sojourns, services=services, arrivals=arrivals,
        components={COMP_BATCH_WAIT: batch_waits, COMP_SERVICE: service_spans},
    )


def _emit_queue_series(outcome: QueueOutcome, dropped_total: int = 0) -> None:
    """Per-window queue-depth / utilization counters onto the trace.

    Vectorized over window edges (searchsorted + histogram) so the cost
    is independent of the request count; capped at
    :data:`trace.MAX_SERIES_POINTS` windows per probe so a long run
    cannot flood the ring buffer.  Only called when tracing is enabled.
    """
    n = len(outcome.sojourns)
    rec = trace.recorder()
    if n == 0 or rec is None:
        return
    completions = outcome.completions()
    horizon = float(completions.max())
    if horizon <= 0:
        return
    interval = rec.metrics_interval_s
    n_windows = int(np.ceil(horizon / interval))
    if n_windows > trace.MAX_SERIES_POINTS:
        n_windows = trace.MAX_SERIES_POINTS
        interval = horizon / n_windows
    edges = np.arange(1, n_windows + 1) * interval
    sorted_completions = np.sort(completions)
    arrived = np.searchsorted(outcome.arrivals, edges, side="right")
    done = np.searchsorted(sorted_completions, edges, side="right")
    depth = arrived - done
    busy, _ = np.histogram(completions, bins=np.concatenate(([0.0], edges)),
                           weights=outcome.services)
    util = np.minimum(busy / interval, 1.0)
    track = trace.subtrack("queue")
    # One batched emission for the whole series; the columns are built
    # vectorized and rounded exactly like the old per-window loop did
    # (np.round matches round() on these non-negative values).
    trace.counter_series(
        "queue", trace.QUEUE, ts_seconds=[float(t) for t in edges], track=track,
        depth=[int(d) for d in depth],
        util=[float(u) for u in np.round(util, 6)],
    )
    if dropped_total:
        trace.instant("queue.dropped", trace.QUEUE, ts=horizon, track=track,
                      dropped=dropped_total)


def _emit_batch_series(batch_log) -> None:
    """Batch-formation spans for the accelerator fast path (trace-only)."""
    step = max(1, len(batch_log) // trace.MAX_SERIES_POINTS)
    track = trace.subtrack("batches")
    for dispatch, batch, span in batch_log[::step]:
        trace.complete("batch", trace.ACCEL_BATCH, ts=dispatch, dur=span,
                       track=track, size=batch)


def attribute_outcome(
    outcome: QueueOutcome, warmup_fraction: float = WARMUP_FRACTION,
    kept_p99: Optional[float] = None,
) -> Dict[str, float]:
    """Latency attribution over the measurement window.

    Returns ``attr.*`` floats for :attr:`RunMetrics.extra`: the mean of
    each component over the kept (post-warmup) requests — these sum to
    the reported mean sojourn exactly — plus the tail-conditional means
    (requests at or above the kept p99), which sum to ``attr.tail_mean_s``
    and show *where* the p99 comes from.  ``kept_p99`` is that p99 when
    the caller already has it (:func:`outcome_to_metrics` does).
    """
    n = len(outcome.sojourns)
    if n == 0 or not outcome.components:
        return {}
    skip = int(n * warmup_fraction)
    kept = outcome.sojourns[skip:]
    if kept.size == 0:
        return {}
    if kept_p99 is None:
        kept_p99 = np.percentile(kept, 99.0)
    tail = kept >= kept_p99
    result = {
        "attr.sojourn_mean_s": float(np.mean(kept)),
        "attr.tail_mean_s": float(np.mean(kept[tail])),
    }
    for name in COMPONENTS:
        values = outcome.components.get(name)
        if values is None:
            continue
        kept_values = values[skip:]
        result[f"attr.{name}_mean_s"] = float(np.mean(kept_values))
        result[f"attr.{name}_tail_s"] = float(np.mean(kept_values[tail]))
    return result


def outcome_to_metrics(
    outcome: QueueOutcome,
    offered_rate: float,
    bytes_per_request: float,
    cores: int = 1,
    warmup_fraction: float = WARMUP_FRACTION,
) -> RunMetrics:
    """Convert raw queue results to the standard RunMetrics record.

    For sharded runs pass the *system* offered rate and the shard count;
    completion rates scale back up by ``cores``.
    """
    n = len(outcome.sojourns)
    if n == 0:
        return RunMetrics(
            offered_rate=offered_rate,
            duration=0.0,
            completed=0,
            completed_rate=0.0,
            goodput_gbps=0.0,
            latency_p50=float("inf"),
            latency_p99=float("inf"),
            latency_mean=float("inf"),
            dropped=outcome.dropped,
        )
    skip = int(n * warmup_fraction)
    kept = outcome.sojourns[skip:]
    completions = outcome.completions()
    duration = float(completions.max() - (outcome.arrivals[skip] if skip < n else 0.0))
    effective_rate = _completed_rate(outcome, cores)
    latency = summarize_samples(kept)
    return RunMetrics(
        offered_rate=offered_rate,
        duration=duration,
        completed=n,
        completed_rate=effective_rate,
        goodput_gbps=effective_rate * bytes_per_request * 8 / 1e9,
        latency_p50=latency.p50,
        latency_p99=latency.p99,
        latency_mean=latency.mean,
        dropped=outcome.dropped,
        # Same warmup window as the latency summary, so the component
        # means sum to latency_mean exactly (and the tail is cut at its p99).
        extra=attribute_outcome(outcome, warmup_fraction, latency.p99),
    )


def outcome_to_verdict(
    outcome: QueueOutcome, offered_rate: float, cores: int = 1
) -> VerdictRecord:
    """The :class:`VerdictRecord` of a run :func:`outcome_to_metrics`
    would convert: same completed rate and drops, p99 left for later."""
    n = len(outcome.sojourns)
    if n == 0:
        return VerdictRecord(offered_rate, 0.0, outcome.dropped, np.empty(0))
    return VerdictRecord(offered_rate, _completed_rate(outcome, cores),
                         outcome.dropped,
                         outcome.sojourns[int(n * WARMUP_FRACTION):])


def _completed_rate(outcome: QueueOutcome, cores: int) -> float:
    """System completed rate of a non-empty outcome (``RunMetrics``'s
    ``completed_rate`` before any wire-rate clip)."""
    n = len(outcome.sojourns)
    # Arrivals in `outcome` are the *served* requests only (drops were
    # removed), so their rate over the run span IS the served rate.  A
    # degenerate span (single request at t=0, or a zero-gap burst) gives
    # no rate information — report 0 rather than divide by zero.
    last_arrival = outcome.arrivals[-1]
    run_span = float(last_arrival)
    served_rate = n / run_span if run_span > 0.0 else 0.0
    # A shard saturates when completions lag arrivals; detect via backlog at
    # the end of the run growing beyond a few service times.  Completion
    # minus arrival, not the sojourn itself: the rounding is part of the
    # verdict every committed output was computed with.
    tail_backlog = float(last_arrival + outcome.sojourns[-1] - last_arrival)
    mean_service = float(np.mean(outcome.services))
    overloaded = tail_backlog > max(50 * mean_service, 0.05 * run_span)
    effective_rate = served_rate * cores
    if overloaded and mean_service > 0:
        effective_rate = min(effective_rate, cores / mean_service)
    return effective_rate
