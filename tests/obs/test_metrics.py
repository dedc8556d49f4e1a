"""Typed metric registry: kinds, buckets, quantiles, and the determinism
contract (worker deltas merged in submission order reproduce the serial
run bit for bit, at any worker completion order and any ``--jobs N``)."""

from __future__ import annotations

import itertools

import pytest

from repro.core.cache import ResultCache, configure
from repro.core.executor import ParallelExecutor, WorkUnit
from repro.obs import metrics
from repro.obs.metrics import (
    DEFAULT_SECONDS_BUCKETS,
    Histogram,
    MetricRegistry,
    log_buckets,
)
from repro.obs.openmetrics import render


@pytest.fixture(autouse=True)
def _fresh_registry():
    configure(ResultCache())
    metrics.reset()
    yield
    configure(ResultCache())
    metrics.reset()


class TestCounterGauge:
    def test_counter_increments(self):
        reg = MetricRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(4)
        assert reg.counter("c").value == 5
        assert reg.counter_values() == {"c": 5}

    def test_gauge_set_add_and_updates(self):
        reg = MetricRegistry()
        gauge = reg.gauge("g")
        gauge.set(2.5)
        gauge.add(-0.5)
        assert gauge.value == 2.0
        assert gauge.updates == 2

    def test_kind_mismatch_raises(self):
        reg = MetricRegistry()
        reg.counter("metric")
        with pytest.raises(ValueError, match="is a counter, not a gauge"):
            reg.gauge("metric")
        with pytest.raises(ValueError, match="not a histogram"):
            reg.histogram("metric")


class TestLogBuckets:
    def test_deterministic_and_ascending(self):
        bounds = log_buckets(1e-4, 100.0, per_decade=2)
        assert bounds == DEFAULT_SECONDS_BUCKETS
        assert list(bounds) == sorted(set(bounds))
        assert bounds[0] == pytest.approx(1e-4)
        assert bounds[-1] == pytest.approx(100.0)

    def test_per_decade_density(self):
        # Two decades at 4/decade: 9 bounds (both endpoints included).
        assert len(log_buckets(1.0, 100.0, per_decade=4)) == 9

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(2.0, 1.0)


class TestHistogram:
    def test_bucket_counts_le_semantics(self):
        hist = Histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 1.0, 2.0, 10.0, 11.0):
            hist.observe(value)
        # le=1.0 holds 0.5 and 1.0; le=10.0 holds 2.0 and 10.0; +Inf 11.0.
        assert hist.counts == [2, 2, 1]
        assert hist.cumulative_counts() == [2, 4, 5]
        assert hist.count == 5
        assert hist.sum == pytest.approx(24.5)

    def test_exact_nearest_rank_quantiles(self):
        hist = Histogram("h", buckets=(100.0,))
        for value in range(1, 101):  # 1..100
            hist.observe(float(value))
        assert hist.quantile(0.50) == 50.0
        assert hist.quantile(0.99) == 99.0
        assert hist.quantile(1.0) == 100.0
        assert hist.quantile(0.0) == 1.0

    def test_empty_quantile_is_none(self):
        assert Histogram("h", buckets=(1.0,)).quantile(0.99) is None

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))


class TestDeltaMergeDeterminism:
    def _serial(self, worker_values):
        reg = MetricRegistry()
        for values in worker_values:
            hist = reg.histogram("wall", buckets=(0.1, 1.0, 10.0))
            for value in values:
                hist.observe(value)
            reg.counter("units").inc()
            reg.gauge("last").set(values[-1])
        return reg

    def _merged(self, worker_values):
        parent = MetricRegistry()
        deltas = []
        for values in worker_values:
            worker = MetricRegistry()  # fresh process image
            before = worker.snapshot()
            hist = worker.histogram("wall", buckets=(0.1, 1.0, 10.0))
            for value in values:
                hist.observe(value)
            worker.counter("units").inc()
            worker.gauge("last").set(values[-1])
            deltas.append(worker.delta_since(before))
        for delta in deltas:  # submission order, regardless of completion
            parent.merge(delta)
        return parent

    def test_merge_reproduces_serial_bit_for_bit(self):
        worker_values = [(0.05, 0.3), (1.7, 0.0001, 2.2), (12.5,)]
        serial = self._serial(worker_values)
        merged = self._merged(worker_values)
        s_hist, m_hist = serial.get("wall"), merged.get("wall")
        assert m_hist.counts == s_hist.counts
        assert m_hist.sum == s_hist.sum  # bitwise: same observation order
        assert m_hist.quantile(0.99) == s_hist.quantile(0.99)
        assert merged.counter("units").value == serial.counter("units").value
        assert merged.gauge("last").value == serial.gauge("last").value
        assert render(merged) == render(serial)

    def test_any_completion_order_same_submission_merge(self):
        # Completion order varies under parallelism; the parent always
        # merges in submission order, so every permutation of *when*
        # deltas arrive yields identical state.
        worker_values = [(0.2,), (3.0, 0.4), (0.009,)]
        reference = render(self._merged(worker_values))
        for permutation in itertools.permutations(range(3)):
            # Simulate out-of-order completion: deltas computed in
            # permutation order but merged in submission order.
            deltas = [None] * 3
            for slot in permutation:
                worker = MetricRegistry()
                before = worker.snapshot()
                hist = worker.histogram("wall", buckets=(0.1, 1.0, 10.0))
                for value in worker_values[slot]:
                    hist.observe(value)
                worker.counter("units").inc()
                worker.gauge("last").set(worker_values[slot][-1])
                deltas[slot] = worker.delta_since(before)
            parent = MetricRegistry()
            for delta in deltas:
                parent.merge(delta)
            assert render(parent) == reference

    def test_gauge_rewrite_to_same_value_still_ships(self):
        worker = MetricRegistry()
        worker.gauge("g").set(1.0)
        before = worker.snapshot()
        worker.gauge("g").set(1.0)  # same value, new write
        delta = worker.delta_since(before)
        assert delta["gauges"] == {"g": 1.0}

    def test_untouched_metrics_ship_nothing(self):
        worker = MetricRegistry()
        worker.counter("c").inc()
        worker.gauge("g").set(2.0)
        worker.histogram("h", buckets=(1.0,)).observe(0.5)
        before = worker.snapshot()
        delta = worker.delta_since(before)
        assert delta == {"counters": {}, "gauges": {}, "hists": {}}


# Module-level so it pickles for the process pool.
def _observing_unit(index):
    hist = metrics.histogram("test.unit_wall", buckets=(0.1, 1.0, 10.0))
    for value in (0.01 * (index + 1), 0.5 + index, 5.0 * index):
        hist.observe(value)
    metrics.counter("test.units").inc()
    metrics.gauge("test.last_index").set(index)
    return index


class TestExecutorIntegration:
    def test_metrics_byte_identical_jobs_1_vs_4(self):
        expositions = []
        for jobs in (1, 4):
            metrics.reset()
            metrics.reset()
            executor = ParallelExecutor(jobs, serial_bypass=False)
            try:
                units = [WorkUnit(name=f"obs:{i}", fn=_observing_unit,
                                  args=(i,)) for i in range(8)]
                results = executor.map(units)
            finally:
                executor.close()
            assert results == list(range(8))
            assert metrics.registry().counter("test.units").value == 8
            expositions.append(render(metrics.registry()))
        assert expositions[0] == expositions[1]

    def test_summary_line_counts_kinds(self):
        metrics.reset()
        metrics.counter("a").inc()
        metrics.gauge("b").set(1)
        metrics.histogram("c", buckets=(1.0,)).observe(0.1)
        assert metrics.summary_line() == (
            "metrics: 1 counters / 1 gauges / 1 histograms")
