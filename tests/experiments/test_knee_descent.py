"""The ``--engine sim`` knee descent picks the full ladder's knee.

:func:`~repro.experiments.measurement.descend_ladder` simulates a knee
ladder from the top down and stops once the best acceptable rung that
ran out-serves a proven bound on every lower rung's completed rate
(:func:`~repro.core.queueing.served_rate_bound`, DESIGN.md §14).  The
oracle is the whole 12-rung :func:`run_ladder` on the same draws: the
descent's knee must be ``_select_knee`` of it, every rung that ran must
have its bits, and the bound must hold for every rung of it, including
rungs the descent skipped and rungs above the wire or staging cap.
"""

import numpy as np
import pytest

from repro.core.queueing import Overloaded
from repro.core.rng import RandomStreams
from repro.experiments import measurement
from repro.experiments.fig4 import FIG4_SMOKE_KEYS, snic_platform_for
from repro.experiments.measurement import (
    LADDER_FACTORS,
    _rung_acceptable,
    _select_knee,
    descend_ladder,
    estimate_capacity_rps,
    run_ladder,
)
from repro.experiments.profiles import get_profile
from repro.obs import metrics as obs_metrics

SAMPLES = 40
N_REQUESTS = 2_500
SEED = 5


def rung_bits(result):
    """What a knee or curve reads from a simulated rung, bit for bit."""
    if isinstance(result, Overloaded):
        return ("overloaded", result.dropped)
    return (result.completed_rate, result.dropped, result.latency_p99)


def knee_ladder(profile, platform):
    anchor = min(estimate_capacity_rps(profile, platform),
                 measurement._nic_cap_rps(profile))
    return [float(rate) for rate in anchor * LADDER_FACTORS]


def rule_rungs(profile, platform, ladder, seed, n_requests, slo_p99=None):
    """The rates the stopping rule must simulate, read off the full
    ladder: ``ladder[k:]`` for the largest ``k`` at which an acceptable
    rung of ``ladder[k:]`` serves at least every lower rung's bound, or
    the whole ladder if there is none."""
    full = run_ladder(profile, platform, ladder, RandomStreams(seed),
                      n_requests, verdict_only=[True] * len(ladder))
    _, bound = measurement._ladder_draws(profile, platform,
                                         RandomStreams(seed), n_requests)
    for k in reversed(range(len(ladder))):
        served = [rung.completed_rate
                  for rate, rung in zip(ladder[k:], full[k:])
                  if _rung_acceptable(rung, rate, slo_p99)]
        if served and all(max(served) >= bound(rate) for rate in ladder[:k]):
            return ladder[k:]
    return ladder


def descend(profile, platform, ladder, slo_p99=None):
    """(knee, rates that ran, their results, probes counted)."""
    before = obs_metrics.counter(obs_metrics.PROBES_SIMULATED).value
    ran = descend_ladder(profile, platform, ladder, RandomStreams(SEED),
                         N_REQUESTS, slo_p99)
    probes = obs_metrics.counter(obs_metrics.PROBES_SIMULATED).value - before
    rates = ladder[len(ladder) - len(ran):]
    return _select_knee(rates, ran, slo_p99), rates, ran, probes


CASES = [(key, platform) for key in FIG4_SMOKE_KEYS
         for platform in ("host", snic_platform_for(get_profile(key, 8)))]


@pytest.mark.parametrize("with_slo", [False, True])
@pytest.mark.parametrize("key,platform", CASES)
def test_descent_matches_the_full_ladder(key, platform, with_slo):
    profile = get_profile(key, samples=SAMPLES)
    ladder = knee_ladder(profile, platform)
    streams = RandomStreams(SEED)
    full = run_ladder(profile, platform, ladder, streams, N_REQUESTS)
    slo_p99 = None
    if with_slo:
        # Binds mid-ladder: the rungs above the sixth mostly miss it.
        slo_p99 = full[5].latency_p99
    verdicts = run_ladder(profile, platform, ladder, streams, N_REQUESTS,
                          verdict_only=[True] * len(ladder))

    knee, rates, ran, probes = descend(profile, platform, ladder, slo_p99)

    assert knee == _select_knee(ladder, verdicts, slo_p99)
    assert rates == rule_rungs(profile, platform, ladder, SEED, N_REQUESTS,
                               slo_p99)
    assert probes == len(ran)
    assert [rung_bits(rung) for rung in ran] == \
        [rung_bits(rung) for rung in verdicts[len(ladder) - len(ran):]]
    _, bound = measurement._ladder_draws(profile, platform, streams,
                                         N_REQUESTS)
    for rate, rung in zip(ladder, full):
        assert rung.completed_rate <= bound(rate), (rate, rung.completed_rate)


def edge_ladder(profile, factors):
    anchor = min(estimate_capacity_rps(profile, "host"),
                 measurement._nic_cap_rps(profile))
    return [float(rate) for rate in anchor * np.asarray(factors)]


def test_no_acceptable_rung_descends_to_the_bottom():
    profile = get_profile("udp:64", samples=SAMPLES)
    ladder = edge_ladder(profile, np.geomspace(1.5, 3.0, 12))
    knee, rates, ran, _ = descend(profile, "host", ladder)
    assert not any(_rung_acceptable(rung, rate, None)
                   for rate, rung in zip(rates, ran))
    assert rates == ladder
    assert knee == ladder[0]


def test_only_the_bottom_rung_acceptable():
    profile = get_profile("udp:64", samples=SAMPLES)
    ladder = edge_ladder(profile, [0.5, *np.geomspace(1.5, 3.0, 11)])
    knee, rates, ran, _ = descend(profile, "host", ladder)
    assert [_rung_acceptable(rung, rate, None)
            for rate, rung in zip(rates, ran)] == [True] + [False] * 11
    assert rates == ladder
    assert knee == ladder[0]


def test_close_rungs_force_the_descent_past_the_first_acceptable_rung():
    # Rungs 2 % apart across the knee: the highest acceptable rung drops
    # a few per cent, so the two rungs under it could still out-serve it
    # (their bounds are above its completed rate) and are simulated.
    profile = get_profile("udp:64", samples=SAMPLES)
    ladder = edge_ladder(profile, 0.9 * 1.02 ** np.arange(12))
    knee, rates, ran, _ = descend(profile, "host", ladder)
    acceptable = [_rung_acceptable(rung, rate, None)
                  for rate, rung in zip(rates, ran)]
    assert acceptable == [True, True, True, False, False, False]
    assert rates == ladder[6:]
    assert knee == ladder[8]
    _, bound = measurement._ladder_draws(profile, "host",
                                         RandomStreams(SEED), N_REQUESTS)
    assert ran[2].completed_rate < bound(ladder[6])
    assert ran[2].completed_rate >= max(bound(rate) for rate in ladder[:6])
