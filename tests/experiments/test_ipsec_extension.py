"""Tests for the IPsec extension experiment."""

import pytest

from repro.core.rng import RandomStreams
from repro.experiments.measurement import ACCEL_PLATFORM, measure_operating_point
from repro.experiments.profiles import get_profile
from tests.experiments.work import mean_work


@pytest.fixture(scope="module")
def points():
    streams = RandomStreams(21)
    profile = get_profile("ipsec:encap", samples=60)
    return {
        platform: measure_operating_point(profile, platform, streams, 6000)
        for platform in ("host", "snic-cpu", ACCEL_PLATFORM)
    }


class TestIpsecExtension:
    def test_profile_work_from_real_esp(self):
        work = mean_work(get_profile("ipsec:encap", samples=40))
        assert work.get("aes_block") >= 64  # 1 KB payload
        assert work.get("sha1_block") > 0

    def test_snic_cpu_loses_as_usual(self, points):
        """KO1 again: the kernel stack + scalar AES bury the A72s."""
        assert points["snic-cpu"].throughput_rps < 0.4 * points["host"].throughput_rps

    def test_engine_plus_kernel_bypass_wins(self, points):
        """The combination the engine exists for: DPDK staging + AES/SHA
        in hardware beats the host's kernel gateway severalfold."""
        ratio = points[ACCEL_PLATFORM].throughput_rps / points["host"].throughput_rps
        assert 2.0 <= ratio <= 6.0

    def test_engine_latency_beats_kernel_floor(self, points):
        """The offloaded path also wins p99 — it sheds the kernel RTT."""
        assert points[ACCEL_PLATFORM].p99_latency_s < points["host"].p99_latency_s

    def test_decap_mirrors_encap(self):
        streams = RandomStreams(22)
        encap = get_profile("ipsec:encap", samples=40)
        decap = get_profile("ipsec:decap", samples=40)
        host_encap = measure_operating_point(encap, "host", streams, 5000)
        host_decap = measure_operating_point(decap, "host", streams, 5000)
        assert host_decap.throughput_rps == pytest.approx(
            host_encap.throughput_rps, rel=0.2
        )
