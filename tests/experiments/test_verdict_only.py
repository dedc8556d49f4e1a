"""Verdict-only knee rungs change no verdict and no operating point.

A knee rung feeds the knee search nothing but whether it is acceptable
(and, if so, its completed rate), so a CPU rung whose drops already
prove it misses 95 % of its offered rate stops early and comes back
:class:`~repro.core.queueing.Overloaded`, and a rung that runs to the
end comes back a :class:`~repro.core.queueing.VerdictRecord`.  These
tests check, for every rung of the 12-rung knee ladder of a few CPU
profiles (and an accelerator) under both probe engines, that the early
verdict equals the full simulation's ``_rung_acceptable``; that a
record's fields equal the full run's and nothing else can be read from
it or from an Overloaded rung; that the hybrid search never truncates
the low window edge whose p99 goes into its TrustRecord; and that the
chosen knees are unchanged.
"""

import dataclasses
import pickle

import pytest

from repro.core import hybrid
from repro.core.cache import ResultCache, configure, get_cache
from repro.core.metrics import RunMetrics
from repro.core.queueing import Overloaded, VerdictOnlyError, VerdictRecord
from repro.core.rng import RandomStreams
from repro.experiments import measurement
from repro.experiments.measurement import (
    LADDER_FACTORS,
    _rung_acceptable,
    estimate_capacity_rps,
    measure_operating_point,
    run_fixed_rate,
    run_ladder,
)
from repro.experiments.profiles import get_profile
from repro.obs import metrics as obs_metrics

SAMPLES = 60
N_REQUESTS = 8_000  # two bounded-kernel blocks: room to stop after one
CASES = [("udp:64", "host"), ("udp:64", "snic-cpu"), ("redis:a", "snic-cpu"),
         ("bm25:1k", "host"), ("mica:4", "snic-cpu")]
ACCEL_CASE = ("crypto:aes", "snic-accel")
SLOS = (None, 50e-6)
# What a verdict record answers; every other RunMetrics field raises.
RECORD_FIELDS = ("offered_rate", "completed_rate", "dropped", "latency_p99")


def knee_ladder(profile, platform):
    anchor = min(estimate_capacity_rps(profile, platform),
                 measurement._nic_cap_rps(profile))
    return [float(rate) for rate in anchor * LADDER_FACTORS]


@pytest.fixture
def fresh_cache():
    previous = get_cache()
    configure(ResultCache())
    yield
    configure(previous)


def assert_record_of(got, want):
    """A rung that ran to the end reports the full run's verdict fields,
    and only those."""
    assert isinstance(got, VerdictRecord)
    for name in RECORD_FIELDS:
        assert getattr(got, name) == getattr(want, name), name
    for field in dataclasses.fields(RunMetrics):
        if field.name not in RECORD_FIELDS:
            with pytest.raises(VerdictOnlyError):
                getattr(got, field.name)


def assert_same_verdicts(rates, full, verdict):
    stopped = 0
    for rate, want, got in zip(rates, full, verdict):
        for slo in SLOS:
            assert _rung_acceptable(got, rate, slo) == \
                _rung_acceptable(want, rate, slo)
        if isinstance(got, Overloaded):
            stopped += 1
            assert got.dropped <= want.dropped
        else:
            assert_record_of(got, want)
    return stopped


@pytest.mark.parametrize("key,platform", CASES)
def test_sim_rungs_keep_their_verdicts(key, platform):
    profile = get_profile(key, samples=SAMPLES)
    rates = knee_ladder(profile, platform)
    full = [run_fixed_rate(profile, platform, rate, RandomStreams(5),
                           N_REQUESTS) for rate in rates]
    verdict = [run_fixed_rate(profile, platform, rate, RandomStreams(5),
                              N_REQUESTS, verdict_only=True)
               for rate in rates]
    assert assert_same_verdicts(rates, full, verdict) > 0


@pytest.mark.parametrize("key,platform", CASES)
def test_ladder_rungs_keep_their_verdicts(key, platform):
    profile = get_profile(key, samples=SAMPLES)
    rates = knee_ladder(profile, platform)
    full = run_ladder(profile, platform, rates, RandomStreams(5), N_REQUESTS)
    verdict = run_ladder(profile, platform, rates, RandomStreams(5),
                         N_REQUESTS, verdict_only=[True] * len(rates))
    assert assert_same_verdicts(rates, full, verdict) > 0


def test_accelerator_rungs_are_records():
    # The batch engine has no bounded buffer: its rungs always run to
    # the end, and a verdict-only rung still reads as a record.
    key, platform = ACCEL_CASE
    profile = get_profile(key, samples=SAMPLES)
    rates = knee_ladder(profile, platform)
    full = run_ladder(profile, platform, rates, RandomStreams(5), N_REQUESTS)
    verdict = run_ladder(profile, platform, rates, RandomStreams(5),
                         N_REQUESTS, verdict_only=[True] * len(rates))
    assert assert_same_verdicts(rates, full, verdict) == 0
    for rate in rates[::4]:
        want = run_fixed_rate(profile, platform, rate, RandomStreams(5),
                              N_REQUESTS)
        got = run_fixed_rate(profile, platform, rate, RandomStreams(5),
                             N_REQUESTS, verdict_only=True)
        assert_record_of(got, want)


def test_record_p99_is_computed_on_first_read_and_pickles():
    profile = get_profile("udp:64", samples=SAMPLES)
    low = knee_ladder(profile, "host")[0]
    want = run_fixed_rate(profile, "host", low, RandomStreams(5), N_REQUESTS)
    got = run_fixed_rate(profile, "host", low, RandomStreams(5), N_REQUESTS,
                         verdict_only=True)
    assert got._p99 is None  # nothing has read it yet
    assert got.latency_p99 == want.latency_p99
    copy = pickle.loads(pickle.dumps(got))
    for name in RECORD_FIELDS:
        assert getattr(copy, name) == getattr(got, name)


def test_stopped_rungs_are_counted():
    profile = get_profile("udp:64", samples=SAMPLES)
    rates = knee_ladder(profile, "host")
    before = obs_metrics.counter(obs_metrics.VERDICT_ONLY).value
    results = run_ladder(profile, "host", rates, RandomStreams(5), N_REQUESTS,
                         verdict_only=[True] * len(rates))
    stopped = sum(isinstance(rung, Overloaded) for rung in results)
    assert stopped > 0
    assert obs_metrics.counter(obs_metrics.VERDICT_ONLY).value - before \
        == stopped


def test_overloaded_rung_raises_when_read():
    profile = get_profile("udp:64", samples=SAMPLES)
    top = knee_ladder(profile, "host")[-1]
    rung = run_fixed_rate(profile, "host", top, RandomStreams(5), N_REQUESTS,
                          verdict_only=True)
    assert isinstance(rung, Overloaded)
    assert not _rung_acceptable(rung, top, None)
    for field in ("latency_p99", "completed_rate", "goodput_gbps"):
        with pytest.raises(VerdictOnlyError):
            getattr(rung, field)


@pytest.mark.parametrize("key,platform", CASES)
def test_hybrid_low_edge_is_never_truncated(key, platform, monkeypatch,
                                            fresh_cache):
    calls = []

    def spy(profile, platform, rates, streams, n_requests=20_000,
            verdict_only=None):
        results = run_ladder(profile, platform, rates, streams, n_requests,
                             verdict_only)
        calls.append((list(rates), verdict_only, results))
        return results

    monkeypatch.setattr(measurement, "run_ladder", spy)
    measure_operating_point(get_profile(key, samples=SAMPLES), platform,
                            RandomStreams(5), N_REQUESTS, engine="hybrid")
    rates, flags, results = calls[0]  # the edge-validation window
    low = rates.index(min(rates))
    assert flags[low] is False
    assert not isinstance(results[low], Overloaded)
    # Every other rung of every call may stop early; only that one is full.
    assert [flag for _, call_flags, _ in calls for flag in call_flags
            ].count(False) == 1


@pytest.mark.parametrize("engine", hybrid.ENGINES)
@pytest.mark.parametrize("key,platform", CASES)
def test_knees_unchanged(key, platform, engine, monkeypatch, fresh_cache):
    profile = get_profile(key, samples=SAMPLES)

    def measure():
        configure(ResultCache())  # no trust record carried between runs
        return measure_operating_point(profile, platform, RandomStreams(5),
                                       N_REQUESTS, engine=engine)

    fast = measure()
    # No served-rate floor: every rung runs to the end.
    monkeypatch.setattr(measurement, "_verdict_floor", lambda rate: None)
    full = measure()
    assert fast.capacity_rps == full.capacity_rps
    assert fast.metrics == full.metrics
