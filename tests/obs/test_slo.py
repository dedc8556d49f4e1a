"""SLO burn monitor: in/out-of-band evaluation, metric recording,
logging levels, and the non-verdict JSON block."""

from __future__ import annotations

import logging
from types import SimpleNamespace

import pytest

from repro.obs import metrics, slo


@pytest.fixture(autouse=True)
def _fresh_registry():
    metrics.reset()
    yield
    metrics.reset()


def _fig4_rows(udp64_ratio=0.18, udp64_p99=1.5):
    """Minimal fig4-shaped rows covering two of the registered targets."""
    return [
        SimpleNamespace(key="udp:64", throughput_ratio=udp64_ratio,
                        p99_ratio=udp64_p99),
    ]


class TestTargets:
    def test_every_registered_experiment_has_targets(self):
        assert set(slo.TARGETS) == {"fig4", "fig5", "fig6", "table4",
                                    "table5"}
        for targets in slo.TARGETS.values():
            for target in targets:
                assert target.kind in (slo.ANCHOR, slo.P99_SLO)
                assert target.lo is not None or target.hi is not None

    def test_check_band_edges_inclusive(self):
        target = slo.SloTarget("t", slo.ANCHOR, "", lambda r: None,
                               lo=1.0, hi=2.0)
        assert target.check(1.0) and target.check(2.0)
        assert not target.check(0.999)
        assert not target.check(2.001)


class TestEvaluate:
    def test_in_band_measurements_are_ok(self):
        findings = slo.evaluate("fig4", _fig4_rows())
        by_name = {f.target: f for f in findings}
        assert by_name["udp64_throughput_ratio"].ok
        assert by_name["udp64_p99_ratio"].ok

    def test_out_of_band_measurement_is_breach(self):
        findings = slo.evaluate("fig4", _fig4_rows(udp64_ratio=0.9))
        by_name = {f.target: f for f in findings}
        assert not by_name["udp64_throughput_ratio"].ok
        assert "BREACH" in by_name["udp64_throughput_ratio"].describe()

    def test_missing_keys_skip_targets(self):
        # A smoke subset without the udp:64 row evaluates nothing for it.
        rows = [SimpleNamespace(key="other", throughput_ratio=1.0,
                                p99_ratio=1.0)]
        assert slo.evaluate("fig4", rows) == []

    def test_unknown_experiment_evaluates_nothing(self):
        assert slo.evaluate("fig9", object()) == []

    def test_raising_extractor_is_skipped_not_fatal(self):
        # table4 extractors dereference attributes; a wrong shape raises
        # inside, which evaluate() swallows per target.
        findings = slo.evaluate("table4", object())
        assert findings == []


class TestObserve:
    def test_records_gauges_and_counters(self):
        findings = slo.observe("fig4", _fig4_rows(udp64_ratio=0.9))
        assert len(findings) == 2
        registry = metrics.registry()
        assert registry.counter(slo.EVALUATED).value == 2
        assert registry.counter(slo.BREACHES).value == 1
        gauge = registry.get("slo.fig4.udp64_throughput_ratio")
        assert gauge is not None and gauge.value == pytest.approx(0.9)

    def test_breach_logs_warning_at_default_tier(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.slo"):
            slo.observe("fig4", _fig4_rows(udp64_ratio=0.9), smoke=False)
        records = [r for r in caplog.records if "SLO drift" in r.message]
        assert records and records[0].levelno == logging.WARNING

    def test_breach_logs_info_at_smoke_tier(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.slo"):
            slo.observe("fig4", _fig4_rows(udp64_ratio=0.9), smoke=True)
        records = [r for r in caplog.records if "SLO drift" in r.message]
        assert records and records[0].levelno == logging.INFO

    def test_clean_run_logs_nothing(self, caplog):
        with caplog.at_level(logging.INFO, logger="repro.slo"):
            slo.observe("fig4", _fig4_rows())
        assert not [r for r in caplog.records if "SLO drift" in r.message]


class TestBlock:
    def test_shape(self):
        findings = slo.evaluate("fig4", _fig4_rows(udp64_ratio=0.9))
        block = slo.block(findings)
        assert block["evaluated"] == 2
        assert block["breaches"] == 1
        assert {t["name"] for t in block["targets"]} == {
            "udp64_throughput_ratio", "udp64_p99_ratio"}
        breached = [t for t in block["targets"] if not t["ok"]]
        assert breached[0]["measured"] == pytest.approx(0.9)
        assert breached[0]["lo"] == 0.10 and breached[0]["hi"] == 0.30

    def test_empty_findings_yield_none(self):
        assert slo.block([]) is None
