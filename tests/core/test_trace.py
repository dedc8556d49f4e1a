"""Flight-recorder trace facility: ring buffer, clocks, exporters.

The overhead contract (disabled tracing is a no-op) is covered here
functionally and in ``benchmarks/test_bench_kernel.py`` quantitatively.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.core import trace
from repro.obs import metrics


@pytest.fixture(autouse=True)
def _clean():
    trace.disable()
    metrics.reset()
    yield
    trace.disable()
    metrics.reset()


class TestRecorder:
    def test_enable_installs_recorder_and_flag(self):
        assert not trace.TRACING
        rec = trace.enable()
        assert trace.TRACING
        assert trace.recorder() is rec
        trace.disable()
        assert not trace.TRACING and trace.recorder() is None

    def test_capacity_bound_evicts_oldest_and_counts_drops(self):
        rec = trace.enable(capacity=4)
        for i in range(7):
            trace.instant(f"e{i}", trace.SIM)
        assert len(rec) == 4
        assert rec.appended == 7
        assert rec.dropped == 3
        assert [e.name for e in rec.events()] == ["e3", "e4", "e5", "e6"]
        assert metrics.counter(metrics.TRACE_DROPPED).value == 3

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            trace.TraceRecorder(capacity=0)
        with pytest.raises(ValueError):
            trace.TraceRecorder(metrics_interval_s=0.0)

    def test_logical_clock_is_per_track(self):
        rec = trace.enable()
        trace.instant("a", trace.PROBE)                # main tick 0
        trace.instant("b", trace.PROBE, track="other")  # other tick 0
        trace.instant("c", trace.PROBE)                # main tick 1
        ts = [(e.track, e.ts_us) for e in rec.events()]
        assert ts == [("main", 0.0), ("other", 0.0), ("main", 1.0)]

    def test_track_context_scopes_and_restores(self):
        rec = trace.enable()
        assert trace.current_track() == "main"
        with trace.track("unit-x"):
            assert trace.current_track() == "unit-x"
            assert trace.subtrack("queue") == "unit-x/queue"
            trace.instant("inside", trace.PROBE)
        assert trace.current_track() == "main"
        assert rec.events()[0].track == "unit-x"

    def test_simulated_time_converted_to_microseconds(self):
        rec = trace.enable()
        trace.instant("i", trace.SIM, ts=0.5)
        trace.complete("x", trace.ACCEL_BATCH, ts=1.0, dur=2e-6)
        events = rec.events()
        assert events[0].ts_us == 0.5e6
        assert events[1].ts_us == 1e6 and events[1].dur_us == pytest.approx(2.0)

    def test_category_counts(self):
        rec = trace.enable()
        trace.instant("a", trace.SIM)
        trace.instant("b", trace.QUEUE)
        trace.instant("c", trace.QUEUE)
        assert rec.category_counts() == {trace.SIM: 1, trace.QUEUE: 2}


class TestDisabledNoOp:
    def test_emit_helpers_are_noops_when_disabled(self):
        trace.instant("a", trace.SIM)
        trace.complete("b", trace.SIM, ts=0.0, dur=1.0)
        trace.counter_series("c", trace.QUEUE, [0.0], depth=[1])
        assert trace.recorder() is None
        assert metrics.counter(metrics.TRACE_DROPPED).value == 0

    def test_export_without_recorder_is_empty(self):
        buffer = io.StringIO()
        assert trace.export_jsonl(buffer) == 0
        assert buffer.getvalue() == ""
        buffer = io.StringIO()
        assert trace.export_chrome(buffer) == 0
        assert json.loads(buffer.getvalue()) == {"traceEvents": []}


class TestExporters:
    def _populate(self):
        rec = trace.enable()
        trace.instant("probe", trace.PROBE, rate=100.0)
        trace.complete("batch", trace.ACCEL_BATCH, ts=1e-3, dur=5e-6,
                       track="accel", size=32)
        trace.counter_series("queue", trace.QUEUE, [2e-3], track="q",
                             depth=[3], util=[0.5])
        return rec

    def test_jsonl_one_stable_line_per_event(self):
        rec = self._populate()
        buffer = io.StringIO()
        assert trace.export_jsonl(buffer, rec) == 3
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first == {"name": "probe", "cat": trace.PROBE, "ph": "i",
                         "track": "main", "ts": 0.0,
                         "args": {"rate": 100.0}}
        # Stable serialization: same recorder -> same bytes.
        again = io.StringIO()
        trace.export_jsonl(again, rec)
        assert again.getvalue() == buffer.getvalue()

    def test_chrome_export_is_perfetto_shaped(self):
        rec = self._populate()
        buffer = io.StringIO()
        assert trace.export_chrome(buffer, rec) == 3
        doc = json.loads(buffer.getvalue())
        events = doc["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metadata} == {"main", "accel", "q"}
        payload = [e for e in events if e["ph"] != "M"]
        for event in payload:
            assert event["pid"] == 1 and event["tid"] >= 1
        span = next(e for e in payload if e["ph"] == "X")
        assert span["dur"] == pytest.approx(5.0)
        instant = next(e for e in payload if e["ph"] == "i")
        assert instant["s"] == "t"
        assert doc["otherData"]["dropped_events"] == 0

    def test_summary_line(self):
        assert trace.summary_line() == "trace off"
        rec = self._populate()
        assert trace.summary_line(rec) == "trace 3 ev (0 dropped)"
