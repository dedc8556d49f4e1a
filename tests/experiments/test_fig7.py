"""Tests for the Fig. 7 trace experiment."""

import pytest

from repro.experiments.fig7 import format_fig7, run_fig7


class TestFig7:
    def test_average_matches_table4_anchor(self):
        result = run_fig7(duration_s=1800.0)
        assert result.stats["average_gbps"] == pytest.approx(0.76, rel=0.01)

    def test_bursty_structure(self):
        """Fig. 7 shows low average with pronounced bursts."""
        result = run_fig7(duration_s=3600.0)
        assert result.stats["peak_gbps"] > 5 * result.stats["average_gbps"]
        assert result.stats["p99_gbps"] > 2 * result.stats["p50_gbps"]

    def test_series_length(self):
        result = run_fig7(duration_s=600.0)
        assert len(result.series()) == 600

    def test_rates_well_below_line_rate(self):
        """§5.1: datacenter trace rates are far below 100 Gb/s."""
        result = run_fig7(duration_s=3600.0)
        assert result.stats["peak_gbps"] < 40.0

    def test_format_renders(self):
        result = run_fig7(duration_s=600.0)
        text = format_fig7(result)
        assert "avg 0.76" in text
        assert "#" in text
