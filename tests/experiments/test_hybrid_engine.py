"""Property tests for the hybrid analytic/simulation probe engine.

Two guarantees the report pipeline leans on:

* the validated analytic fast path only engages when the spot-check
  simulations agree with the model within tolerance — a disagreeing
  model must degrade the whole ladder back to batched simulation;
* engine selection never changes a headline number: the probe-verified
  max sustainable rate and the operating-point knee are identical with
  the hybrid engine on or off at tier-1 fidelity.
"""

import contextlib
import dataclasses

import numpy as np
import pytest

from repro.core import cache, hybrid
from repro.core.cache import ResultCache
from repro.core.hybrid import TrustRecord
from repro.obs import metrics as obs_metrics
from repro.core.rng import RandomStreams
from repro.experiments import fig5, measurement
from repro.experiments.fig4 import FIG4_SMOKE_KEYS, snic_platform_for
from repro.experiments.measurement import (
    LADDER_FACTORS,
    estimate_capacity_rps,
    measure_operating_point,
    predict_fixed_rate,
    run_ladder,
    run_validated_ladder,
    sweep_operating_rate,
)
from repro.experiments.profiles import get_profile
from tests.experiments.test_knee_descent import rule_rungs, rung_bits


@contextlib.contextmanager
def engine_scope(mode):
    """Switch the process-wide probe engine for the block."""
    previous = hybrid.configure_engine(None)
    hybrid.configure_engine(mode)
    try:
        yield
    finally:
        hybrid.configure_engine(previous)


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
            with engine_scope(engine):
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
        with engine_scope("hybrid"):
            measure_operating_point(
                profile, "host", RandomStreams(7), N_REQUESTS)
            hybrid_result = sweep_operating_rate(
                profile, "host", RandomStreams(7), N_REQUESTS)
        with engine_scope("sim"):
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


# -- one ladder code path: sim is hybrid with an empty trust region -----------

SMOKE_SAMPLES = 40
SMOKE_REQUESTS = 2_500
# A 15-rate Fig. 5 curve in load factors of the capacity anchor: below,
# through and past the knee window.
CURVE_FACTORS = np.geomspace(0.2, 1.6, 15)


def _record_simulated_rungs(monkeypatch):
    """Every rung :func:`run_ladder` or :func:`descend_ladder` simulates
    from now on, by rate."""
    rungs = {}
    real_ladder = measurement.run_ladder
    real_descent = measurement.descend_ladder

    def record(rates, results):
        for rate, result in zip(rates, results):
            rungs[float(rate)] = rung_bits(result)
        return results

    def recorded(profile, platform, rates, streams, n_requests=20_000,
                 verdict_only=None):
        return record(rates, real_ladder(profile, platform, rates, streams,
                                         n_requests, verdict_only))

    def recorded_descent(profile, platform, ladder, streams,
                         n_requests=20_000, slo_p99=None):
        results = real_descent(profile, platform, ladder, streams,
                               n_requests, slo_p99)
        return record(list(ladder)[len(ladder) - len(results):], results)

    monkeypatch.setattr(measurement, "run_ladder", recorded)
    monkeypatch.setattr(measurement, "descend_ladder", recorded_descent)
    monkeypatch.setattr(fig5, "run_ladder", recorded)
    return rungs


def _engine_run(monkeypatch, engine, profile, platform, curve_gbps):
    """One engine's knee and Fig. 5 curve on a fresh cache: the knee,
    the simulated rungs of each, the cache and the analytic hits."""
    store = cache.configure(ResultCache())
    hits = obs_metrics.counter(obs_metrics.ANALYTIC_HITS).value
    with monkeypatch.context() as patch:
        knee_rungs = _record_simulated_rungs(patch)
        point = measure_operating_point(
            profile, platform, RandomStreams(11), SMOKE_REQUESTS,
            engine=engine)
    with monkeypatch.context() as patch:
        curve_rungs = _record_simulated_rungs(patch)
        fig5.measure_series(profile, platform, platform, curve_gbps,
                            RandomStreams(11), n_requests=SMOKE_REQUESTS,
                            engine=engine)
    analytic = obs_metrics.counter(obs_metrics.ANALYTIC_HITS).value - hits
    return point.capacity_rps, knee_rungs, curve_rungs, store, analytic


@pytest.mark.parametrize("key", FIG4_SMOKE_KEYS)
def test_engines_agree_on_every_simulated_rung(monkeypatch, key):
    profile = get_profile(key, samples=SMOKE_SAMPLES)
    previous = cache.get_cache()
    try:
        for platform in ("host", snic_platform_for(profile)):
            anchor = min(estimate_capacity_rps(profile, platform),
                         measurement._nic_cap_rps(profile))
            curve_gbps = [anchor * factor * profile.wire_bytes * 8 / 1e9
                          for factor in CURVE_FACTORS]
            hybrid_knee, hybrid_ladder, hybrid_curve, hybrid_store, _ = \
                _engine_run(monkeypatch, "hybrid", profile, platform,
                            curve_gbps)
            sim_knee, sim_ladder, sim_curve, sim_store, sim_analytic = \
                _engine_run(monkeypatch, "sim", profile, platform,
                            curve_gbps)
            ladder = [float(rate) for rate in anchor * LADDER_FACTORS]
            full_ladder = dict(zip(ladder, map(rung_bits, run_ladder(
                profile, platform, ladder, RandomStreams(11), SMOKE_REQUESTS,
                verdict_only=[True] * len(ladder)))))

            assert sim_knee == hybrid_knee
            assert sorted(sim_ladder) == rule_rungs(
                profile, platform, ladder, 11, SMOKE_REQUESTS)
            assert len(sim_curve) == len(CURVE_FACTORS)
            for simulated, everything in ((hybrid_ladder, full_ladder),
                                          (sim_ladder, full_ladder),
                                          (hybrid_curve, sim_curve)):
                assert simulated
                for rate, bits in simulated.items():
                    assert everything[rate] == bits, (platform, rate)
            # The hybrid knee validated a trust region; sim keeps none.
            assert any(isinstance(value, TrustRecord)
                       for value in hybrid_store._memory.values())
            assert len(sim_store) == 0
            assert sim_analytic == 0
    finally:
        cache.configure(previous)
