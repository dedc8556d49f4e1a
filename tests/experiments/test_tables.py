"""Anchor tests for Table 4 (trace replay) and Table 5 (TCO)."""

import pytest

from repro.core.rng import RandomStreams
from repro.experiments.table4 import format_table4, run_table4
from repro.experiments.table5 import run_table5


@pytest.fixture(scope="module")
def table4():
    return run_table4(samples=120, n_requests=6000, streams=RandomStreams(3))


@pytest.fixture(scope="module")
def table5():
    return run_table5(samples=120, n_requests=6000, streams=RandomStreams(3))


class TestTable4:
    def test_throughputs_match_trace_average(self, table4):
        """Table 4: both platforms sustain the 0.76 Gb/s trace."""
        assert table4.host.throughput_gbps == pytest.approx(0.76, rel=0.15)
        assert table4.snic.throughput_gbps == pytest.approx(
            table4.host.throughput_gbps, rel=0.05
        )

    def test_host_p99_near_5us(self, table4):
        """Table 4: host p99 5.07 us."""
        assert 4.0 <= table4.host.p99_latency_us <= 8.0

    def test_snic_p99_about_3x_host(self, table4):
        """Table 4: SNIC p99 17.43 us (~3.4x the host's)."""
        assert 14.0 <= table4.snic.p99_latency_us <= 28.0
        assert table4.snic.p99_latency_us > 2.5 * table4.host.p99_latency_us

    def test_power_anchors(self, table4):
        """Table 4: 278.3 W host-processing vs 254.5 W SNIC-processing."""
        assert table4.host.average_power_w == pytest.approx(278.3, abs=6.0)
        assert table4.snic.average_power_w == pytest.approx(254.5, abs=3.0)

    def test_power_saving_is_modest(self, table4):
        """§5.1: even with relaxed latency, the saving is only ~9 %."""
        saving = 1 - table4.snic.average_power_w / table4.host.average_power_w
        assert 0.03 <= saving <= 0.15

    def test_formatting(self, table4):
        text = format_table4(table4)
        assert "Throughput" in text and "SNIC" in text


class TestTable5:
    def test_applications_present(self, table5):
        assert set(table5.by_application()) == {"fio", "OVS", "REM", "Compress"}

    def test_fio_savings(self, table5):
        """Table 5: fio saves 2.7 % with the SNIC."""
        savings = table5.by_application()["fio"].savings_fraction
        assert 0.015 <= savings <= 0.045

    def test_ovs_savings(self, table5):
        """Table 5: OvS saves 1.7 %."""
        savings = table5.by_application()["OVS"].savings_fraction
        assert 0.008 <= savings <= 0.035

    def test_rem_costs_more(self, table5):
        """Table 5: REM loses 2.5 % — the SNIC premium isn't recovered."""
        savings = table5.by_application()["REM"].savings_fraction
        assert -0.04 <= savings <= -0.005

    def test_compress_dominant_savings(self, table5):
        """Table 5: Compress saves 70.7 % (fleet shrinks ~3.5x)."""
        comparison = table5.by_application()["Compress"]
        assert 0.60 <= comparison.savings_fraction <= 0.75
        assert comparison.nic_fleet.servers >= 25

    def test_equal_fleets_when_throughput_comparable(self, table5):
        for app in ("fio", "OVS", "REM"):
            comparison = table5.by_application()[app]
            assert comparison.nic_fleet.servers == comparison.snic_fleet.servers

    def test_tco_magnitude(self, table5):
        """Sanity: a 10-server SNIC fleet costs ~$99k over 5 years."""
        comparison = table5.by_application()["fio"]
        assert 90_000 <= comparison.snic_fleet.tco_usd <= 110_000
