"""Host/SNIC load balancing (Strategy 3, §5.3) and SNIC→host failover.

The paper's preliminary investigation: a load balancer implemented on the
BlueField-2 CPU "consumes most of the SNIC CPU cycles simply to monitor
packets at high rates and cannot redirect packets fast enough to meet SLO
constraints", hence the call for hardware support.  This module builds
both balancers so that claim is measurable:

* :class:`SnicCpuBalancer` — per-packet monitoring costs SNIC CPU cycles
  (reducing the capacity left for the function) and redirect decisions
  react after a monitoring/telemetry delay;
* :class:`HardwareBalancer` — the proposed design: zero monitoring cost,
  immediate backlog visibility.

Both run the same threshold policy: send a packet to the host when the
SNIC path's (observed) backlog exceeds a bound.  `simulate_balancer`
drives either over an arrival stream and reports per-path latency, loss,
and the split.

`simulate_failover` extends the same policy with a fault-aware SNIC path:
given a health model (:class:`~repro.faults.models.SnicHealth`), the SNIC
backlog stops draining during an outage, packets queued behind a dead
path see the remaining outage in their sojourn, and the threshold policy
— through its existing reaction-delay machinery — detects the inflated
observed backlog, redirects to the host, and fails back once the path
recovers and drains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np


@dataclass
class BalancerConfig:
    """Capacities are request rates; backlogs are seconds of queued work."""

    snic_service_s: float
    host_service_s: float
    snic_cores: int = 8
    host_cores: int = 8
    redirect_threshold_s: float = 50e-6  # observed SNIC backlog bound
    snic_queue_limit_s: float = 500e-6
    host_queue_limit_s: float = 500e-6
    # SNIC-CPU implementation overheads (zero for the hardware design)
    monitor_cost_s: float = 0.0  # per packet, charged to the SNIC path
    reaction_delay_s: float = 0.0  # staleness of the observed backlog


@dataclass
class BalancerOutcome:
    sent_to_snic: int
    sent_to_host: int
    dropped: int
    p99_latency_s: float
    mean_latency_s: float
    snic_monitor_utilization: float

ROUTE_SNIC, ROUTE_HOST, ROUTE_DROP = 0, 1, 2


@dataclass
class FailoverOutcome:
    """A balancer run with per-packet routing visibility and SLO accounting."""

    outcome: BalancerOutcome
    deadline_s: Optional[float]
    p999_latency_s: float
    arrivals: np.ndarray  # arrival time of every offered packet
    routes: np.ndarray  # ROUTE_SNIC / ROUTE_HOST / ROUTE_DROP per packet
    latencies: np.ndarray  # sojourn of every *kept* packet (arrival order)
    outage_windows: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def offered(self) -> int:
        return len(self.arrivals)

    @property
    def availability(self) -> float:
        """Fraction of offered requests served (within the deadline if set)."""
        if self.offered == 0:
            return 1.0
        served = self.routes != ROUTE_DROP
        if self.deadline_s is None:
            return float(np.mean(served))
        ok = self.latencies <= self.deadline_s
        return float(np.sum(ok)) / self.offered

    def host_fraction_between(self, t0: float, t1: float) -> float:
        """Host share of routed packets arriving in ``[t0, t1)``."""
        window = (self.arrivals >= t0) & (self.arrivals < t1)
        routed = window & (self.routes != ROUTE_DROP)
        if not routed.any():
            return 0.0
        return float(np.mean(self.routes[routed] == ROUTE_HOST))

    def drops_between(self, t0: float, t1: float) -> int:
        window = (self.arrivals >= t0) & (self.arrivals < t1)
        return int(np.sum(self.routes[window] == ROUTE_DROP))

    def recovery_times_s(self) -> List[float]:
        """Per outage window: delay from recovery until traffic returns to
        the SNIC path (inf if it never fails back within the run)."""
        times: List[float] = []
        for _, end in self.outage_windows:
            after = (self.arrivals >= end) & (self.routes == ROUTE_SNIC)
            if after.any():
                times.append(float(self.arrivals[after][0] - end))
            else:
                times.append(float("inf"))
        return times


def _run_policy(
    config: BalancerConfig,
    rate: float,
    n_packets: int,
    rng: np.random.Generator,
    snic_health=None,
) -> Tuple[BalancerOutcome, np.ndarray, np.ndarray, np.ndarray]:
    """The threshold policy over a Poisson stream; shared by both entry
    points.  With ``snic_health`` (duck-typed:
    ``service_profile(times)``) the SNIC path carries fault state; with
    None the arithmetic is exactly the classic balancer.
    """
    gaps = rng.exponential(1.0 / rate, size=n_packets)
    arrivals = np.cumsum(gaps)
    if snic_health is not None:
        # One vectorized health sweep instead of three timeline queries
        # per packet; element-wise identical to the scalar methods.
        h_avail, h_factor, h_until = snic_health.service_profile(arrivals)
    snic_effective = config.snic_service_s / config.snic_cores
    host_effective = config.host_service_s / config.host_cores
    monitor_effective = config.monitor_cost_s / config.snic_cores

    snic_backlog = 0.0
    host_backlog = 0.0
    latencies = np.empty(n_packets)
    routes = np.full(n_packets, ROUTE_DROP, dtype=np.int8)
    kept = 0
    to_snic = to_host = dropped = 0
    monitor_busy = 0.0
    previous = 0.0

    # Plain-float views for the per-packet loop: scalar ndarray indexing
    # boxes a np.float64 per access; python floats are the same IEEE
    # doubles, so every comparison and sum below is bit-identical.
    arrival_list = arrivals.tolist()
    if snic_health is not None:
        h_avail_list = h_avail.tolist()
        h_factor_list = h_factor.tolist()
        h_until_list = h_until.tolist()
    latency_list = latencies.tolist()
    route_list = routes.tolist()
    redirect_threshold = config.redirect_threshold_s
    snic_queue_limit = config.snic_queue_limit_s
    host_queue_limit = config.host_queue_limit_s
    reaction_delay = config.reaction_delay_s
    monitor_cost = config.monitor_cost_s
    # Delayed observation: ``visible[i]`` is what packet i's arrival
    # showed the policy, and ``oldest`` the latest packet at least
    # ``reaction_delay`` old (it only moves forward), so the observed
    # backlog is ``visible[oldest]`` — 0.0 until one is that old.
    visible = [0.0] * n_packets
    oldest = 0

    # ``x if x > 0.0 else 0.0`` is exactly max(0.0, x), NaN and -0.0
    # included, without the builtin call (DESIGN.md §9).
    for index in range(n_packets):
        now = arrival_list[index]
        elapsed = now - previous
        previous = now

        if snic_health is None:
            snic_backlog = snic_backlog - elapsed
            snic_backlog = snic_backlog if snic_backlog > 0.0 else 0.0
            head_delay = 0.0
            factor = 1.0
        else:
            available = h_avail_list[index]
            # A dead path does not drain its queue.
            if available:
                snic_backlog = snic_backlog - elapsed
                snic_backlog = snic_backlog if snic_backlog > 0.0 else 0.0
            head_delay = 0.0 if available else h_until_list[index] - now
            factor = h_factor_list[index] if available else 1.0
        host_backlog = host_backlog - elapsed
        host_backlog = host_backlog if host_backlog > 0.0 else 0.0

        # Monitoring happens on the SNIC CPU for every packet.
        snic_backlog += monitor_effective
        monitor_busy += monitor_cost

        # What the policy could see *right now*: queued work plus, during an
        # outage, the wait for the path to come back at all.
        snic_visible = snic_backlog + head_delay

        if reaction_delay > 0.0:
            visible[index] = snic_visible
            cutoff = now - reaction_delay
            while oldest < index and arrival_list[oldest + 1] <= cutoff:
                oldest += 1
            observed = visible[oldest] if arrival_list[oldest] <= cutoff else 0.0
        else:
            observed = snic_visible

        if observed <= redirect_threshold:
            if snic_visible > snic_queue_limit:
                dropped += 1
                continue
            # Work queued behind a dead path is served at the nominal rate
            # after recovery; a throttled path inflates it by ``factor``.
            addition = snic_effective if head_delay > 0.0 else snic_effective * factor
            snic_backlog += addition
            latency_list[kept] = snic_backlog + head_delay
            route_list[index] = ROUTE_SNIC
            to_snic += 1
        else:
            if host_backlog > host_queue_limit:
                dropped += 1
                continue
            host_backlog += host_effective
            latency_list[kept] = host_backlog
            route_list[index] = ROUTE_HOST
            to_host += 1
        kept += 1

    latencies = np.asarray(latency_list[:kept])
    routes = np.asarray(route_list, dtype=np.int8)
    duration = float(arrivals[-1]) if n_packets else 0.0
    outcome = BalancerOutcome(
        sent_to_snic=to_snic,
        sent_to_host=to_host,
        dropped=dropped,
        p99_latency_s=float(np.percentile(latencies, 99)) if kept else float("inf"),
        mean_latency_s=float(np.mean(latencies)) if kept else float("inf"),
        snic_monitor_utilization=(
            monitor_busy / (duration * config.snic_cores) if duration else 0.0
        ),
    )
    return outcome, arrivals, routes, latencies


def simulate_balancer(
    config: BalancerConfig,
    rate: float,
    n_packets: int,
    rng: np.random.Generator,
) -> BalancerOutcome:
    """Run the threshold policy over a Poisson arrival stream.

    Each path is a fluid FIFO (per-core sharding folded into an effective
    service time); the balancer observes the SNIC backlog with
    ``reaction_delay_s`` staleness, and every packet pays
    ``monitor_cost_s`` of SNIC CPU time whether or not it is redirected —
    that is what starves the SNIC-CPU implementation at high rates.
    """
    outcome, _, _, _ = _run_policy(config, rate, n_packets, rng)
    return outcome


def simulate_failover(
    config: BalancerConfig,
    rate: float,
    n_packets: int,
    rng: np.random.Generator,
    snic_health=None,
    deadline_s: Optional[float] = None,
) -> FailoverOutcome:
    """The threshold policy with a fault-aware SNIC path.

    ``snic_health`` follows the :class:`~repro.faults.models.SnicHealth`
    protocol; ``deadline_s`` turns availability into an SLO statement
    (served AND within the deadline) rather than plain delivery.
    """
    outcome, arrivals, routes, latencies = _run_policy(
        config, rate, n_packets, rng, snic_health=snic_health
    )
    windows: List[Tuple[float, float]] = []
    if snic_health is not None and hasattr(snic_health, "outage_windows"):
        windows = list(snic_health.outage_windows())
    p999 = float(np.percentile(latencies, 99.9)) if len(latencies) else float("inf")
    return FailoverOutcome(
        outcome=outcome,
        deadline_s=deadline_s,
        p999_latency_s=p999,
        arrivals=arrivals,
        routes=routes,
        latencies=latencies,
        outage_windows=windows,
    )


# ---------------------------------------------------------------------------
# Cross-node placement: the two-path policy generalized to a fleet
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodePathConfig:
    """One node as a balancing target: a fluid FIFO with optional outages.

    The same shape as the SNIC/host paths above, multiplied out: service
    folded across cores into an effective drain rate, a backlog bound
    beyond which packets drop, and (for correlated-fault studies) outage
    windows during which the node neither drains nor serves.
    """

    name: str
    service_s: float
    cores: int = 8
    queue_limit_s: float = 500e-6
    outages: Tuple[Tuple[float, float], ...] = ()

    @property
    def effective_service_s(self) -> float:
        return self.service_s / self.cores


@dataclass
class FleetOutcome:
    """A fleet balancer run: per-node split, latency, availability."""

    per_node_served: Tuple[Tuple[str, int], ...]
    dropped: int
    offered: int
    mean_latency_s: float
    p99_latency_s: float
    deadline_s: Optional[float]
    within_deadline: int

    @property
    def availability(self) -> float:
        """Served fraction — within the deadline when one is set."""
        if self.offered == 0:
            return 1.0
        if self.deadline_s is None:
            return (self.offered - self.dropped) / self.offered
        return self.within_deadline / self.offered


def simulate_fleet(
    nodes: List[NodePathConfig],
    rate: float,
    n_packets: int,
    rng: np.random.Generator,
    reaction_delay_s: float = 0.0,
    deadline_s: Optional[float] = None,
) -> FleetOutcome:
    """Join-the-shortest-queue across N nodes over a Poisson stream.

    This is ``_run_policy`` with the two hard-wired paths replaced by a
    vector of them: each arrival is routed to the node with the smallest
    *observed* backlog (periodic telemetry snapshots of staleness
    ``reaction_delay_s``, as a fleet balancer sees, rather than the
    per-path sliding history of the two-path policy), where the observed
    backlog of a node mid-outage includes the wait for it to come back.
    A packet whose best visible choice exceeds that node's queue bound is
    dropped.
    """
    if not nodes:
        raise ValueError("fleet needs at least one node")
    n = len(nodes)
    gaps = rng.exponential(1.0 / rate, size=n_packets)
    arrivals = np.cumsum(gaps).tolist()

    effective = [node.effective_service_s for node in nodes]
    limits = [node.queue_limit_s for node in nodes]
    windows = [list(node.outages) for node in nodes]
    pointers = [0] * n
    backlogs = [0.0] * n
    observed = [0.0] * n
    last_snapshot = float("-inf")

    served_counts = [0] * n
    latencies: List[float] = []
    dropped = 0
    within = 0
    previous = 0.0

    for now in arrivals:
        elapsed = now - previous
        previous = now
        visible = observed  # refreshed below when the snapshot is due
        head_delays = [0.0] * n
        for k in range(n):
            wins = windows[k]
            p = pointers[k]
            while p < len(wins) and wins[p][1] <= now:
                p += 1
            pointers[k] = p
            in_outage = p < len(wins) and wins[p][0] <= now < wins[p][1]
            if in_outage:
                head_delays[k] = wins[p][1] - now
            else:
                backlogs[k] = max(0.0, backlogs[k] - elapsed)
        if now - last_snapshot >= reaction_delay_s:
            observed = [backlogs[k] + head_delays[k] for k in range(n)]
            last_snapshot = now
            visible = observed

        best = min(range(n), key=lambda k: (visible[k], k))
        actual = backlogs[best] + head_delays[best]
        if actual > limits[best]:
            dropped += 1
            continue
        backlogs[best] += effective[best]
        latency = backlogs[best] + head_delays[best]
        latencies.append(latency)
        served_counts[best] += 1
        if deadline_s is not None and latency <= deadline_s:
            within += 1

    values = np.asarray(latencies) if latencies else np.asarray([np.inf])
    return FleetOutcome(
        per_node_served=tuple(
            (node.name, served_counts[k]) for k, node in enumerate(nodes)),
        dropped=dropped,
        offered=n_packets,
        mean_latency_s=float(np.mean(values)),
        p99_latency_s=float(np.percentile(values, 99)),
        deadline_s=deadline_s,
        within_deadline=within,
    )
