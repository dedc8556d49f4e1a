"""Tests for SNIC→host failover and load-balancer drop accounting."""

import warnings

import numpy as np
import pytest

from repro.faults.models import SnicHealth
from repro.faults.schedule import KIND_CORE_LOSS, FaultSpec, FaultTimeline
from repro.offload.loadbalancer import (
    BalancerConfig,
    ROUTE_DROP,
    ROUTE_HOST,
    ROUTE_SNIC,
    _run_policy,
    _tail_percentile,
    simulate_balancer,
    simulate_failover,
)

SNIC_SERVICE = 1.2e-6
HOST_SERVICE = 0.7e-6
# The BlueField-2-CPU balancer: ~600 cycles of per-packet monitoring and
# 100 us stale telemetry.  The hardware design is BalancerConfig's default.
SNIC_CPU = dict(monitor_cost_s=600 / 2.0e9, reaction_delay_s=100e-6)


def outage_health(start, end, horizon):
    specs = [FaultSpec.one_shot("outage", "snic", start_s=start,
                                duration_s=end - start, kind="outage")]
    return SnicHealth(FaultTimeline(specs, horizon), target="snic")


def degrade_health(start, end, horizon, severity):
    specs = [FaultSpec.one_shot("hot", "snic", start_s=start,
                                duration_s=end - start, kind="degrade",
                                severity=severity)]
    return SnicHealth(FaultTimeline(specs, horizon), target="snic")


class TestDropAccounting:
    """Satellite: sent_to_snic + sent_to_host + dropped == offered, for
    every config shape including nonzero monitor and reaction delay."""

    CONFIGS = {
        "hardware": BalancerConfig(SNIC_SERVICE, HOST_SERVICE),
        "snic-cpu": BalancerConfig(SNIC_SERVICE, HOST_SERVICE, **SNIC_CPU),
        "monitor-only": BalancerConfig(SNIC_SERVICE, HOST_SERVICE,
                                       monitor_cost_s=600 / 2.0e9),
        "stale-only": BalancerConfig(SNIC_SERVICE, HOST_SERVICE,
                                     reaction_delay_s=200e-6),
        "tiny-queues": BalancerConfig(SNIC_SERVICE, HOST_SERVICE,
                                      snic_queue_limit_s=20e-6,
                                      host_queue_limit_s=20e-6,
                                      monitor_cost_s=600 / 2.0e9,
                                      reaction_delay_s=100e-6),
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    @pytest.mark.parametrize("rate", [1e6, 9e6, 2.5e7])
    def test_conservation(self, name, rate):
        n = 20_000
        outcome = simulate_balancer(self.CONFIGS[name], rate, n,
                                    np.random.default_rng(7))
        assert outcome.sent_to_snic + outcome.sent_to_host + outcome.dropped == n

    def test_conservation_under_faults(self):
        n = 20_000
        rate = 6e6
        health = outage_health(1e-3, 2e-3, n / rate)
        run = simulate_failover(BalancerConfig(SNIC_SERVICE, HOST_SERVICE, **SNIC_CPU),
                                rate, n, np.random.default_rng(7),
                                snic_health=health)
        o = run.outcome
        assert o.sent_to_snic + o.sent_to_host + o.dropped == n
        assert int(np.sum(run.routes == ROUTE_SNIC)) == o.sent_to_snic
        assert int(np.sum(run.routes == ROUTE_HOST)) == o.sent_to_host
        assert int(np.sum(run.routes == ROUTE_DROP)) == o.dropped


class TestFailoverEquivalence:
    def test_no_health_matches_classic_balancer(self):
        """simulate_failover without a health model must be numerically
        identical to simulate_balancer (same draws, same arithmetic)."""
        config = BalancerConfig(SNIC_SERVICE, HOST_SERVICE, **SNIC_CPU)
        classic = simulate_balancer(config, 6e6, 15_000,
                                    np.random.default_rng(3))
        failover = simulate_failover(config, 6e6, 15_000,
                                     np.random.default_rng(3)).outcome
        assert classic == failover


class TestFailover:
    RATE = 5e6  # below SNIC capacity (8 cores / 1.2 us ≈ 6.7 M rps)
    N = 60_000

    def _run(self, config, health):
        return simulate_failover(config, self.RATE, self.N,
                                 np.random.default_rng(11),
                                 snic_health=health, deadline_s=1e-3)

    def test_outage_triggers_failover_and_failback(self):
        horizon = self.N / self.RATE
        t0, t1 = 0.4 * horizon, 0.6 * horizon
        run = self._run(BalancerConfig(SNIC_SERVICE, HOST_SERVICE, **SNIC_CPU),
                        outage_health(t0, t1, horizon))
        # Steady state lives on the SNIC; the outage pushes it to the host.
        before = run.host_fraction_between(0.0, t0)
        during = run.host_fraction_between(t0, t1)
        after = run.host_fraction_between(t1 + 0.1 * horizon, horizon)
        assert before < 0.05
        assert during > 0.90
        assert after < 0.10  # failed back

    def test_outage_drops_bounded_by_reaction_window(self):
        horizon = self.N / self.RATE
        t0, t1 = 0.4 * horizon, 0.6 * horizon
        config = BalancerConfig(SNIC_SERVICE, HOST_SERVICE, **SNIC_CPU)
        run = self._run(config, outage_health(t0, t1, horizon))
        # Drops happen only until the stale observation catches up: about
        # reaction_delay worth of traffic, with headroom for queue effects.
        assert 0 < run.outcome.dropped < 3 * self.RATE * config.reaction_delay_s
        assert run.drops_between(0.0, t0) == 0
        assert run.availability > 0.98

    def test_hardware_balancer_fails_over_with_zero_drops(self):
        horizon = self.N / self.RATE
        t0, t1 = 0.4 * horizon, 0.6 * horizon
        run = self._run(BalancerConfig(SNIC_SERVICE, HOST_SERVICE),
                        outage_health(t0, t1, horizon))
        assert run.outcome.dropped == 0
        # The tail of the window (remaining head delay below the redirect
        # threshold) legitimately queues behind the recovering path.
        assert run.host_fraction_between(t0, t1) > 0.95

    def test_recovery_time_reported(self):
        horizon = self.N / self.RATE
        t0, t1 = 0.4 * horizon, 0.6 * horizon
        run = self._run(BalancerConfig(SNIC_SERVICE, HOST_SERVICE, **SNIC_CPU),
                        outage_health(t0, t1, horizon))
        times = run.recovery_times_s()
        assert len(times) == 1
        assert 0.0 <= times[0] < 0.2 * horizon

    def test_degraded_clock_spills_partially(self):
        horizon = self.N / self.RATE
        t0, t1 = 0.3 * horizon, 0.7 * horizon
        run = self._run(BalancerConfig(SNIC_SERVICE, HOST_SERVICE),
                        degrade_health(t0, t1, horizon, severity=3.0))
        during = run.host_fraction_between(t0, t1)
        before = run.host_fraction_between(0.0, t0)
        # Throttled (not dead): some traffic spills, the path keeps serving.
        assert during > before
        assert 0.05 < during < 1.0
        assert int(np.sum((run.routes == ROUTE_SNIC)
                          & (run.arrivals >= t0) & (run.arrivals < t1))) > 0

    def test_availability_accounts_for_deadline(self):
        horizon = self.N / self.RATE
        health = outage_health(0.4 * horizon, 0.6 * horizon, horizon)
        config = BalancerConfig(SNIC_SERVICE, HOST_SERVICE, **SNIC_CPU)
        strict = simulate_failover(config, self.RATE, self.N,
                                   np.random.default_rng(11),
                                   snic_health=health, deadline_s=5e-6)
        loose = simulate_failover(config, self.RATE, self.N,
                                  np.random.default_rng(11),
                                  snic_health=health, deadline_s=1.0)
        assert strict.availability <= loose.availability


class TestInfiniteTail:
    """A tail quantile next to an infinite sojourn reads inf, not nan."""

    def test_interpolation_into_inf_is_inf(self):
        values = np.array([1.0] * 98 + [np.inf] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _tail_percentile(values, 99) == np.inf

    def test_zero_weight_on_inf_keeps_the_lower_value(self):
        # The 99th percentile of 101 values is exactly the 100th one.
        values = np.array([1.0] * 100 + [np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _tail_percentile(values, 99) == 1.0

    @pytest.mark.parametrize("q", [50, 99, 99.9])
    def test_finite_values_are_numpys_bit_for_bit(self, q):
        values = np.random.default_rng(3).exponential(1e-5, size=1001)
        assert (np.float64(_tail_percentile(values, q)).tobytes()
                == np.float64(np.percentile(values, q)).tobytes())

    def test_total_core_loss_p99_next_to_the_dead_packet(self):
        # Severity 1.0 leaves no core: the first packet into the dead
        # path never finishes.  With 40 kept packets, p99 sits 0.61 of
        # the way from the slowest finite sojourn to that one, where
        # numpy's interpolation computes inf - inf.
        rate, n_packets = 1e5, 40
        horizon = n_packets / rate
        spec = FaultSpec.one_shot("core-loss", "snic",
                                  start_s=0.3 * horizon,
                                  duration_s=0.4 * horizon,
                                  kind=KIND_CORE_LOSS, severity=1.0)
        health = SnicHealth(FaultTimeline([spec], horizon), target="snic")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcome, _, _, latencies = _run_policy(
                BalancerConfig(SNIC_SERVICE, HOST_SERVICE), rate, n_packets,
                np.random.default_rng(3), snic_health=health)
        assert len(latencies) == n_packets
        assert np.isinf(latencies).sum() == 1
        assert outcome.p99_latency_s == np.inf
