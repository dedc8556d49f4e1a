"""Tests for the max-sustainable-throughput search."""

import pytest

from repro.core.metrics import RunMetrics
from repro.core.sweep import find_max_sustainable_rate
from repro.obs import metrics


def sustainable(result):
    """Did any probe actually sustain its offered rate?"""
    return any(m.sustained for m in result.probes)


def failed_probes(result):
    """Probes whose ``run_at`` raised (recorded, not propagated)."""
    return sum(1 for m in result.probes if m.extra.get("probe_failed"))


def make_system(capacity, base_latency=1e-6):
    """A synthetic M/M/1-flavoured system: sustains rates below capacity,
    p99 grows hyperbolically as the rate approaches capacity."""

    def run_at(rate):
        if rate < capacity:
            completed_rate = rate
            p99 = base_latency / max(1e-9, (1 - rate / capacity))
        else:
            completed_rate = capacity * 0.9  # overload: drops
            p99 = 1.0
        return RunMetrics(
            offered_rate=rate,
            duration=1.0,
            completed=int(completed_rate),
            completed_rate=completed_rate,
            goodput_gbps=completed_rate * 1000 * 8 / 1e9,
            latency_p50=p99 / 2,
            latency_p99=p99,
            latency_mean=p99 / 2,
        )

    return run_at


def test_finds_capacity_knee():
    run_at = make_system(capacity=10_000.0)
    result = find_max_sustainable_rate(run_at, low_rate=100.0, high_rate=100_000.0)
    assert 9_000.0 <= result.max_rate <= 10_000.0


def test_slo_bound_lowers_operating_point():
    run_at = make_system(capacity=10_000.0, base_latency=1e-6)
    # p99 <= 2us happens at rate <= capacity/2
    result = find_max_sustainable_rate(
        run_at, low_rate=100.0, high_rate=100_000.0, slo_p99=2e-6
    )
    assert result.max_rate <= 5_100.0
    assert result.metrics.latency_p99 <= 2e-6


def test_ceiling_respected_when_never_saturating():
    run_at = make_system(capacity=1e12)
    result = find_max_sustainable_rate(run_at, low_rate=10.0, high_rate=500.0)
    assert result.max_rate == 500.0


def test_floor_returned_when_nothing_sustains():
    run_at = make_system(capacity=5.0)
    result = find_max_sustainable_rate(run_at, low_rate=10.0, high_rate=1000.0)
    assert result.max_rate == 10.0
    assert not result.metrics.sustained


def test_invalid_bounds_rejected():
    run_at = make_system(capacity=100.0)
    with pytest.raises(ValueError):
        find_max_sustainable_rate(run_at, low_rate=0.0, high_rate=10.0)
    with pytest.raises(ValueError):
        find_max_sustainable_rate(run_at, low_rate=10.0, high_rate=10.0)


def test_probe_budget_bounds_run_count():
    calls = []
    inner = make_system(capacity=10_000.0)

    def run_at(rate):
        calls.append(rate)
        return inner(rate)

    find_max_sustainable_rate(
        run_at, low_rate=1.0, high_rate=1e9, max_probes=12, tolerance=1e-6
    )
    assert len(calls) <= 12


def test_probes_recorded():
    run_at = make_system(capacity=10_000.0)
    result = find_max_sustainable_rate(run_at, low_rate=100.0, high_rate=100_000.0)
    assert len(result.probes) >= 3
    assert result.goodput_gbps > 0


def test_raising_probe_contained_and_recorded():
    """Hardening: a run_at that blows up at high rates must not abort the
    search — the failed probe is recorded and the knee is still found."""
    inner = make_system(capacity=10_000.0)

    def run_at(rate):
        if rate > 5_000.0:
            raise RuntimeError("model diverged")
        return inner(rate)

    result = find_max_sustainable_rate(run_at, low_rate=100.0, high_rate=1e6)
    assert failed_probes(result) >= 1
    assert sustainable(result)
    # The raising region acts as the (contained) saturation boundary.
    assert 4_500.0 <= result.max_rate <= 5_000.0
    failed = [m for m in result.probes if m.extra.get("probe_failed")]
    assert failed and all(m.latency_p99 == float("inf") for m in failed)
    assert all(not m.sustained for m in failed)


def test_all_probes_raising_yields_unsustainable_floor():
    def run_at(rate):
        raise RuntimeError("always broken")

    result = find_max_sustainable_rate(run_at, low_rate=10.0, high_rate=1000.0)
    assert result.max_rate == 10.0
    assert not sustainable(result)
    assert failed_probes(result) == len(result.probes) == 1
    assert result.metrics.extra.get("probe_failed")


def test_sustainable_flag_tracks_probe_outcomes():
    good = find_max_sustainable_rate(
        make_system(capacity=10_000.0), low_rate=100.0, high_rate=100_000.0
    )
    assert sustainable(good)
    assert failed_probes(good) == 0
    bad = find_max_sustainable_rate(
        make_system(capacity=5.0), low_rate=10.0, high_rate=1000.0
    )
    assert not sustainable(bad)


def test_monotone_latency_in_probe_set():
    run_at = make_system(capacity=10_000.0)
    result = find_max_sustainable_rate(run_at, low_rate=100.0, high_rate=9_999.0)
    sustained = [m for m in result.probes if m.sustained]
    ordered = sorted(sustained, key=lambda m: m.offered_rate)
    latencies = [m.latency_p99 for m in ordered]
    assert latencies == sorted(latencies)


class TestWarmStart:
    """Analytic warm starts: fewer probes, same (probe-verified) answer."""

    CAPACITY = 10_000.0
    LOW, HIGH = 100.0, 100_000.0

    def _search(self, warm_start=None, capacity=CAPACITY, **kwargs):
        calls = []
        inner = make_system(capacity=capacity)

        def run_at(rate):
            calls.append(rate)
            return inner(rate)

        result = find_max_sustainable_rate(
            run_at, low_rate=self.LOW, high_rate=self.HIGH,
            warm_start=warm_start, **kwargs)
        return result, calls

    def test_good_estimate_saves_probes_same_answer(self):
        cold, cold_calls = self._search()
        warm, warm_calls = self._search(warm_start=self.CAPACITY)
        assert len(warm_calls) < len(cold_calls)
        assert warm.max_rate == pytest.approx(cold.max_rate, rel=0.02)

    def test_probe_saved_counter_increments(self):
        before = metrics.counter(metrics.PROBES_SAVED).value
        self._search(warm_start=self.CAPACITY)
        assert metrics.counter(metrics.PROBES_SAVED).value > before

    def test_cold_search_never_touches_counter(self):
        before = metrics.counter(metrics.PROBES_SAVED).value
        self._search()
        assert metrics.counter(metrics.PROBES_SAVED).value == before

    def test_high_estimate_degrades_to_floor_bisection(self):
        # Estimate 5x over capacity: both bracket probes fail, the
        # search verifies the floor and bisects below the failed probe.
        warm, _ = self._search(warm_start=5 * self.CAPACITY)
        assert sustainable(warm)
        assert warm.max_rate == pytest.approx(self.CAPACITY, rel=0.1)

    def test_low_estimate_resumes_geometric_ramp(self):
        warm, _ = self._search(warm_start=self.CAPACITY / 20.0)
        assert sustainable(warm)
        assert warm.max_rate == pytest.approx(self.CAPACITY, rel=0.05)

    def test_estimate_above_ceiling_clamped(self):
        # Capacity beyond the search ceiling: the warm search verifies
        # the ceiling itself and stops there, like the cold one.
        warm, _ = self._search(warm_start=1e9, capacity=1e9)
        assert warm.max_rate == self.HIGH

    def test_nothing_sustains_reports_floor(self):
        warm, _ = self._search(warm_start=self.CAPACITY, capacity=1.0)
        assert not sustainable(warm)
        assert warm.max_rate == self.LOW

    def test_answer_always_probe_verified(self):
        # The returned metrics must come from an actual probe at (or
        # bracketing) max_rate, never from the analytic estimate.
        warm, calls = self._search(warm_start=self.CAPACITY)
        assert warm.metrics.offered_rate in calls
