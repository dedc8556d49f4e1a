"""Tests for CSV result export."""

import csv
import io

import pytest

from repro.analysis.export import (
    write_fig4_csv,
    write_fig5_csv,
    write_fig6_csv,
    write_table5_csv,
)
from repro.analysis.tco import compare
from repro.core.rng import RandomStreams
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import rows_from_fig4


@pytest.fixture(scope="module")
def fig4_rows():
    return run_fig4(keys=("udp:64", "crypto:sha1"), samples=40,
                    n_requests=3000, streams=RandomStreams(5))


class TestFig4Export:
    def test_row_count(self, fig4_rows):
        buffer = io.StringIO()
        assert write_fig4_csv(buffer, fig4_rows) == 2

    def test_parseable_and_consistent(self, fig4_rows):
        buffer = io.StringIO()
        write_fig4_csv(buffer, fig4_rows)
        buffer.seek(0)
        parsed = list(csv.DictReader(buffer))
        assert parsed[0]["key"] == "udp:64"
        ratio = float(parsed[0]["throughput_ratio"])
        recomputed = float(parsed[0]["snic_throughput_rps"]) / float(
            parsed[0]["host_throughput_rps"]
        )
        assert ratio == pytest.approx(recomputed, rel=1e-3)


class TestFig5Export:
    def test_points_flattened(self):
        figure = run_fig5(rulesets=("file_executable",), rates_gbps=(10, 30),
                          samples=40, n_requests=3000, streams=RandomStreams(5))
        buffer = io.StringIO()
        count = write_fig5_csv(buffer, figure)
        assert count == 2 * 4  # 2 rates x (3 host-core series + accel)
        buffer.seek(0)
        parsed = list(csv.DictReader(buffer))
        assert {row["series"] for row in parsed} == {
            "host-1c", "host-4c", "host-8c", "snic-accel"
        }


class TestFig6Export:
    def test_fields(self, fig4_rows):
        buffer = io.StringIO()
        write_fig6_csv(buffer, rows_from_fig4(fig4_rows))
        buffer.seek(0)
        parsed = list(csv.DictReader(buffer))
        assert float(parsed[0]["host_power_w"]) >= 252.0


class TestTable5Export:
    def test_roundtrip(self):
        comparison = compare("fio", 257.0, 343.0, 1.0)
        buffer = io.StringIO()
        assert write_table5_csv(buffer, [comparison]) == 1
        buffer.seek(0)
        parsed = list(csv.DictReader(buffer))
        assert parsed[0]["application"] == "fio"
        assert float(parsed[0]["savings_fraction"]) == pytest.approx(
            comparison.savings_fraction, abs=1e-4
        )
