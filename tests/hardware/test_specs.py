"""Tests for the hardware specification records (Tables 1-2)."""

import pytest

from repro.hardware.specs import (
    BLUEFIELD2,
    CLIENT,
    CONNECTX6_DX,
    IsaFeature,
    PRICES_USD,
    PcieSpec,
    SERVER,
)


class TestBlueField2:
    def test_table1_cpu(self):
        cpu = BLUEFIELD2.cpu
        assert cpu.cores == 8
        assert cpu.frequency_hz == 2.0e9
        assert cpu.architecture == "aarch64"

    def test_table1_memory(self):
        assert BLUEFIELD2.memory.capacity_gb == 16
        assert BLUEFIELD2.memory.technology == "DDR4-3200"

    def test_table1_network(self):
        assert BLUEFIELD2.nic.port_gbps == 100.0
        assert BLUEFIELD2.nic.ports == 2
        assert BLUEFIELD2.nic.model.startswith("ConnectX-6")

    def test_table1_pcie(self):
        assert BLUEFIELD2.pcie.generation == 4
        assert BLUEFIELD2.pcie.lanes == 16

    def test_three_accelerators(self):
        assert set(BLUEFIELD2.accelerators) == {"rem", "compression", "crypto"}

    def test_snic_power_envelope(self):
        assert BLUEFIELD2.idle_power_w == 29.0
        assert BLUEFIELD2.max_active_power_w - BLUEFIELD2.idle_power_w == pytest.approx(5.4)


class TestServers:
    def test_server_cpu_is_skylake_gold(self):
        assert "6140" in SERVER.cpu.model
        assert SERVER.cpu.frequency_hz == 2.1e9  # userspace-governor pin

    def test_server_has_isa_extensions(self):
        assert IsaFeature.AES_NI in SERVER.cpu.features
        assert IsaFeature.AVX512 in SERVER.cpu.features
        assert IsaFeature.RDRAND in SERVER.cpu.features

    def test_snic_cpu_lacks_host_extensions(self):
        assert IsaFeature.AES_NI not in BLUEFIELD2.cpu.features
        assert IsaFeature.AVX512 not in BLUEFIELD2.cpu.features

    def test_client_is_broadwell(self):
        assert "E5-2640" in CLIENT.cpu.model

    def test_memory_asymmetry(self):
        """Six host channels vs one SNIC channel drives the memory-bound
        work-unit penalties."""
        assert SERVER.memory.channels == 6
        assert BLUEFIELD2.memory.channels == 1
        assert SERVER.memory.bandwidth_gbs > 4 * BLUEFIELD2.memory.bandwidth_gbs

    def test_server_idle_anchor(self):
        assert SERVER.idle_power_w == 252.0


class TestPcie:
    def test_gen3_x16_bandwidth(self):
        spec = PcieSpec(generation=3, lanes=16, transaction_latency_s=900e-9)
        assert spec.bandwidth_gbs == pytest.approx(15.76, rel=0.01)

    def test_gen4_doubles_gen3(self):
        gen3 = PcieSpec(3, 16, 1e-9).bandwidth_gbs
        gen4 = PcieSpec(4, 16, 1e-9).bandwidth_gbs
        assert gen4 == pytest.approx(2 * gen3, rel=0.01)


class TestMisc:
    def test_prices_match_paper(self):
        assert PRICES_USD["server_without_nic"] == 6287.0
        assert PRICES_USD["snic_bluefield2"] == 1817.0
        assert PRICES_USD["nic_connectx6dx"] == 1478.0

    def test_nic_spec(self):
        assert CONNECTX6_DX.port_gbps == 100.0
