"""Property tests for the hybrid analytic/simulation probe engine.

Two guarantees the report pipeline leans on:

* the validated analytic fast path only engages when the spot-check
  simulations agree with the model within tolerance — a disagreeing
  model must degrade the whole ladder back to batched simulation;
* engine selection never changes a headline number: the probe-verified
  max sustainable rate and the operating-point knee are identical with
  the hybrid engine on or off at tier-1 fidelity.
"""

import dataclasses

import pytest

from repro.core import hybrid
from repro.obs import metrics as obs_metrics
from repro.core.rng import RandomStreams
from repro.experiments import measurement
from repro.experiments.measurement import (
    estimate_capacity_rps,
    measure_operating_point,
    predict_fixed_rate,
    run_ladder,
    run_validated_ladder,
    sweep_operating_rate,
)
from repro.experiments.profiles import get_profile

N_REQUESTS = 4000
SAMPLES = 40


@pytest.fixture
def profile():
    return get_profile("udp:64", samples=SAMPLES)


def _ladder_rates(profile, platform="host"):
    """A grid straddling the knee window: below, inside, and above."""
    anchor = min(estimate_capacity_rps(profile, platform),
                 measurement._nic_cap_rps(profile))
    return [anchor * f for f in (0.2, 0.4, 0.6, 0.8, 0.95, 1.05, 1.3, 1.6)]


class TestValidatedLadder:
    def test_fast_path_engages_inside_tolerance(self, profile):
        rates = _ladder_rates(profile)
        before = obs_metrics.counter(obs_metrics.ANALYTIC_HITS).value
        results = run_validated_ladder(
            profile, "host", rates, RandomStreams(3), N_REQUESTS)
        analytic = [m for m in results if m.extra.get("probe.analytic")]
        # udp:64 is a well-behaved M/G/1 curve: the spot checks agree,
        # so the out-of-window rungs are answered analytically.
        assert analytic
        assert (obs_metrics.counter(obs_metrics.ANALYTIC_HITS).value - before
                == len(analytic))

    def test_window_rungs_always_simulated(self, profile):
        rates = _ladder_rates(profile)
        results = run_validated_ladder(
            profile, "host", rates, RandomStreams(3), N_REQUESTS)
        cfg = hybrid.config()
        anchor = min(estimate_capacity_rps(profile, "host"),
                     measurement._nic_cap_rps(profile))
        for rate, metrics in zip(rates, results):
            factor = rate / anchor
            if cfg.sim_window_lo <= factor <= cfg.sim_window_hi:
                assert not metrics.extra.get("probe.analytic"), (
                    f"knee-window rung at factor {factor:.2f} was not "
                    f"simulated")

    def test_simulated_rungs_match_plain_ladder(self, profile):
        rates = _ladder_rates(profile)
        results = run_validated_ladder(
            profile, "host", rates, RandomStreams(3), N_REQUESTS)
        reference = run_ladder(
            profile, "host", rates, RandomStreams(3), N_REQUESTS)
        for got, want in zip(results, reference):
            if not got.extra.get("probe.analytic"):
                assert got.latency_p99 == want.latency_p99
                assert got.completed_rate == want.completed_rate

    def test_disagreeing_model_degrades_to_full_simulation(
            self, profile, monkeypatch):
        def utopian_prediction(profile_, platform, rate, n_requests=20_000):
            # A model claiming every rate is served perfectly at zero
            # latency: the low spot check fails the p99 tolerance and
            # the high spot check disagrees on overload acceptability.
            real = predict_fixed_rate(profile_, platform, rate, n_requests)
            return dataclasses.replace(
                real, completed_rate=rate, completed=n_requests, dropped=0,
                latency_p50=1e-9, latency_p99=1e-9, latency_mean=1e-9)

        monkeypatch.setattr(
            measurement, "predict_fixed_rate", utopian_prediction)
        rates = _ladder_rates(profile)
        before = obs_metrics.counter(obs_metrics.ANALYTIC_HITS).value
        results = run_validated_ladder(
            profile, "host", rates, RandomStreams(5), N_REQUESTS)
        # No rung trusted the analytic model ...
        assert obs_metrics.counter(obs_metrics.ANALYTIC_HITS).value == before
        assert not any(m.extra.get("probe.analytic") for m in results)
        # ... and the degraded ladder is exactly the plain simulation.
        reference = run_ladder(
            profile, "host", rates, RandomStreams(5), N_REQUESTS)
        assert ([m.latency_p99 for m in results]
                == [m.latency_p99 for m in reference])
        assert ([m.completed_rate for m in results]
                == [m.completed_rate for m in reference])


class TestEngineEquivalence:
    @pytest.mark.parametrize("key", ["udp:64", "redis:a"])
    def test_operating_point_identical_hybrid_on_off(self, key):
        profile = get_profile(key, samples=SAMPLES)
        points = {}
        for engine in ("sim", "hybrid"):
            with hybrid.engine_scope(engine):
                points[engine] = measure_operating_point(
                    profile, "host", RandomStreams(9), N_REQUESTS)
        assert points["hybrid"].capacity_rps == points["sim"].capacity_rps
        assert (points["hybrid"].metrics.latency_p99
                == points["sim"].metrics.latency_p99)
        assert (points["hybrid"].metrics.completed_rate
                == points["sim"].metrics.completed_rate)

    def test_sweep_rate_identical_hybrid_on_off(self):
        profile = get_profile("udp:64", samples=SAMPLES)
        # Populate the trust region first so the hybrid sweep actually
        # exercises the analytic skip path instead of trivially
        # simulating every probe.
        with hybrid.engine_scope("hybrid"):
            measure_operating_point(
                profile, "host", RandomStreams(7), N_REQUESTS)
            hybrid_result = sweep_operating_rate(
                profile, "host", RandomStreams(7), N_REQUESTS)
        with hybrid.engine_scope("sim"):
            sim_result = sweep_operating_rate(
                profile, "host", RandomStreams(7), N_REQUESTS)
        assert hybrid_result.max_rate == sim_result.max_rate
        assert (hybrid_result.metrics.latency_p99
                == sim_result.metrics.latency_p99)
        assert (hybrid_result.metrics.completed_rate
                == sim_result.metrics.completed_rate)
        # The skipped probes show up as saved work, never as a
        # different answer.
        assert len(hybrid_result.probes) <= len(sim_result.probes) + 1
