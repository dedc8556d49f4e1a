"""Unit and property tests for the measurement instruments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LatencyRecorder, RunMetrics, ThroughputMeter


class TestLatencyRecorder:
    def test_empty_percentile_is_inf(self):
        recorder = LatencyRecorder()
        assert recorder.p99() == float("inf")

    def test_warmup_samples_dropped(self):
        recorder = LatencyRecorder(warmup_until=1.0)
        recorder.record(0.5, 100.0)  # warmup
        recorder.record(1.5, 1.0)
        assert recorder.count == 1
        assert recorder.warmup_count == 1
        assert recorder.p99() == pytest.approx(1.0)

    def test_negative_latency_rejected(self):
        recorder = LatencyRecorder()
        with pytest.raises(ValueError):
            recorder.record(1.0, -0.1)

    def test_percentiles_match_numpy(self):
        recorder = LatencyRecorder()
        values = np.linspace(1.0, 100.0, 100)
        for v in values:
            recorder.record(10.0, float(v))
        assert recorder.p50() == pytest.approx(np.percentile(values, 50))
        assert recorder.p99() == pytest.approx(np.percentile(values, 99))
        assert recorder.mean() == pytest.approx(values.mean())
        assert recorder.max() == pytest.approx(100.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_p99_bounded_by_min_max(self, samples):
        recorder = LatencyRecorder()
        for s in samples:
            recorder.record(1.0, s)
        assert min(samples) <= recorder.p99() <= max(samples)


class TestThroughputMeter:
    def test_counts_and_rates(self):
        meter = ThroughputMeter()
        for t in range(1, 11):
            meter.record(float(t), nbytes=1000)
        assert meter.requests == 10
        assert meter.request_rate(window=10.0) == pytest.approx(1.0)
        assert meter.byte_rate(window=10.0) == pytest.approx(1000.0)
        assert meter.gbps(window=10.0) == pytest.approx(8e3 / 1e9)

    def test_warmup_excluded(self):
        meter = ThroughputMeter(warmup_until=5.0)
        meter.record(1.0, nbytes=100)
        meter.record(6.0, nbytes=100)
        assert meter.requests == 1
        assert meter.bytes == 100
        assert meter.first_completion == 6.0

    def test_zero_window(self):
        meter = ThroughputMeter()
        assert meter.request_rate(0.0) == 0.0
        assert meter.gbps(0.0) == 0.0


class TestRunMetrics:
    def _metrics(self, offered, completed_rate):
        return RunMetrics(
            offered_rate=offered,
            duration=1.0,
            completed=int(completed_rate),
            completed_rate=completed_rate,
            goodput_gbps=1.0,
            latency_p50=1e-6,
            latency_p99=5e-6,
            latency_mean=2e-6,
        )

    def test_sustained_when_keeping_up(self):
        assert self._metrics(1000.0, 995.0).sustained

    def test_not_sustained_when_falling_behind(self):
        assert not self._metrics(1000.0, 900.0).sustained

    def test_zero_offered_rate_is_sustained(self):
        assert self._metrics(0.0, 0.0).sustained

    def test_p99_in_microseconds(self):
        assert self._metrics(1.0, 1.0).latency_p99_us() == pytest.approx(5.0)
