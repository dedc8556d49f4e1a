"""The balancer's per-packet policy loop is bit-identical to its old form.

``_run_policy`` clamps backlogs with ``x if x > 0.0 else 0.0`` instead of
``max(0.0, x)`` (the same function on floats, NaN and -0.0 included) and
finds the reaction-delayed observation with a monotone index into the
arrival list instead of a ``(time, backlog)`` history list drained with
``pop(0)``.  A frozen copy of the old loop is the oracle: routes,
latencies, arrivals and every outcome field must match exactly, with no
reaction delay and with one, with no health model, through an outage and
through a throttling episode.
"""

from typing import Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults.models import SnicHealth
from repro.faults.schedule import FaultSpec, FaultTimeline
from repro.offload.loadbalancer import (
    ROUTE_DROP,
    ROUTE_HOST,
    ROUTE_SNIC,
    BalancerConfig,
    BalancerOutcome,
    _run_policy,
)


def frozen_run_policy(
    config: BalancerConfig,
    rate: float,
    n_packets: int,
    rng: np.random.Generator,
    snic_health=None,
) -> Tuple[BalancerOutcome, np.ndarray, np.ndarray, np.ndarray]:
    """``_run_policy`` as it was before the exact-clamp/index rewrite."""
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
    history: list = []  # (time, observed backlog) for delayed observation
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

    for index in range(n_packets):
        now = arrival_list[index]
        elapsed = now - previous
        previous = now

        if snic_health is None:
            snic_backlog = max(0.0, snic_backlog - elapsed)
            head_delay = 0.0
            factor = 1.0
        else:
            available = h_avail_list[index]
            # A dead path does not drain its queue.
            if available:
                snic_backlog = max(0.0, snic_backlog - elapsed)
            head_delay = 0.0 if available else h_until_list[index] - now
            factor = h_factor_list[index] if available else 1.0
        host_backlog = max(0.0, host_backlog - elapsed)

        # Monitoring happens on the SNIC CPU for every packet.
        snic_backlog += monitor_effective
        monitor_busy += monitor_cost

        # What the policy could see *right now*: queued work plus, during an
        # outage, the wait for the path to come back at all.
        snic_visible = snic_backlog + head_delay

        if reaction_delay > 0.0:
            history.append((now, snic_visible))
            cutoff = now - reaction_delay
            observed = 0.0
            while len(history) > 1 and history[1][0] <= cutoff:
                history.pop(0)
            if history and history[0][0] <= cutoff:
                observed = history[0][1]
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



def _health(kind, start, duration, horizon):
    """One fault episode, placed as fractions of the run's horizon."""
    if kind is None:
        return None
    spec = FaultSpec.one_shot(kind, "snic", start_s=start * horizon,
                              duration_s=duration * horizon, kind=kind,
                              **({"severity": 3.0} if kind == "degrade" else {}))
    return SnicHealth(FaultTimeline([spec], horizon), target="snic")


def assert_same_run(config, rate, n_packets, seed, health_args):
    horizon = n_packets / rate
    got = _run_policy(config, rate, n_packets, np.random.default_rng(seed),
                      snic_health=_health(*health_args, horizon))
    want = frozen_run_policy(config, rate, n_packets,
                             np.random.default_rng(seed),
                             snic_health=_health(*health_args, horizon))
    assert got[0] == want[0]  # every BalancerOutcome field, floats exact
    for new, old in zip(got[1:], want[1:]):
        assert new.dtype == old.dtype
        assert np.array_equal(new, old, equal_nan=True)
        assert new.tobytes() == old.tobytes()


HEALTH = {
    "none": (None, 0.0, 0.0),
    "outage": ("outage", 0.3, 0.2),
    "degrade": ("degrade", 0.2, 0.4),
}


class TestPolicyOracle:
    @pytest.mark.parametrize("health", sorted(HEALTH))
    @pytest.mark.parametrize("reaction_delay", [0.0, 20e-6, 100e-6])
    @pytest.mark.parametrize("rate", [2e6, 9e6, 2.5e7])
    def test_matches_frozen_loop(self, health, reaction_delay, rate):
        config = BalancerConfig(1.2e-6, 0.7e-6,
                                monitor_cost_s=600 / 2.0e9,
                                reaction_delay_s=reaction_delay)
        assert_same_run(config, rate, 20_000, 5, HEALTH[health])

    @given(
        rate=st.floats(1e5, 5e7),
        reaction_delay=st.one_of(st.just(0.0), st.floats(1e-7, 5e-4)),
        threshold=st.sampled_from([0.0, 10e-6, 50e-6]),
        queue_limit=st.sampled_from([0.0, 20e-6, 500e-6]),
        monitor=st.sampled_from([0.0, 300e-9]),
        health=st.sampled_from(sorted(HEALTH)),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_frozen_loop_everywhere(self, rate, reaction_delay,
                                            threshold, queue_limit, monitor,
                                            health, seed):
        config = BalancerConfig(1.2e-6, 0.7e-6,
                                redirect_threshold_s=threshold,
                                snic_queue_limit_s=queue_limit,
                                host_queue_limit_s=queue_limit,
                                monitor_cost_s=monitor,
                                reaction_delay_s=reaction_delay)
        assert_same_run(config, rate, 2_000, seed, HEALTH[health])

    def test_simultaneous_arrivals_see_the_same_observation(self):
        # A zero-gap stream makes every cutoff land exactly on earlier
        # arrival times: the index must stop where the old history did.
        class FixedGaps:
            def exponential(self, scale, size):
                gaps = np.full(size, 1e-6)
                gaps[::3] = 0.0
                return gaps

        config = BalancerConfig(1.2e-6, 0.7e-6, reaction_delay_s=2e-6,
                                redirect_threshold_s=1e-6)
        got = _run_policy(config, 1e6, 3_000, FixedGaps())
        want = frozen_run_policy(config, 1e6, 3_000, FixedGaps())
        assert got[0] == want[0]
        for new, old in zip(got[1:], want[1:]):
            assert new.tobytes() == old.tobytes()
        assert set(np.unique(got[2])) <= {ROUTE_SNIC, ROUTE_HOST, ROUTE_DROP}
