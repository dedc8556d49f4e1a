"""Tests for the function-profile catalog."""

import pytest

from repro.experiments.profiles import ALL_PROFILE_KEYS, get_profile
from tests.experiments.work import mean_work


class TestRegistry:
    def test_all_13_functions_covered(self):
        """Table 3 lists 10 benchmarks + 3 microbenchmarks; every one has
        at least one profile config."""
        families = {key.split(":")[0] for key in ALL_PROFILE_KEYS}
        assert families == {
            "udp", "dpdk", "rdma",  # microbenchmarks
            "redis", "snort", "nat", "bm25",  # TCP/UDP
            "mica", "fio",  # RDMA
            "crypto", "rem", "compression", "ovs",  # DPDK / accelerated
        }

    def test_unknown_key_raises(self):
        with pytest.raises(KeyError):
            get_profile("nginx:tls")

    def test_caching(self):
        assert get_profile("udp:64", samples=10) is get_profile("udp:64", samples=10)

    @pytest.mark.parametrize("key", sorted(ALL_PROFILE_KEYS))
    def test_profile_wellformed(self, key):
        profile = get_profile(key, samples=30)
        assert profile.key == key
        assert profile.wire_bytes > 0
        assert profile.payload_bytes > 0
        assert profile.work_samples
        assert profile.platforms
        assert profile.category in ("micro", "software", "hardware")
        if profile.accel_engine is not None:
            assert "snic-accel" in profile.platforms
        if profile.stack is not None:
            assert profile.stack in ("udp", "tcp", "dpdk", "rdma")


class TestExecutionPlatforms:
    """Table 3's execution-platform matrix (HC / SC / SA columns)."""

    def test_accelerated_functions(self):
        for key in ("crypto:aes", "rem:file_image", "compression:app"):
            assert "snic-accel" in get_profile(key, samples=30).platforms

    def test_software_only_functions(self):
        for key in ("redis:a", "nat:10k", "mica:4", "fio:read", "ovs:10"):
            profile = get_profile(key, samples=30)
            assert "snic-accel" not in profile.platforms
            assert {"host", "snic-cpu"} <= set(profile.platforms)

    def test_crypto_runs_on_all_three(self):
        profile = get_profile("crypto:sha1", samples=30)
        assert set(profile.platforms) == {"host", "snic-cpu", "snic-accel"}


class TestProfileContent:
    def test_redis_workloads_differ_in_mix(self):
        a = get_profile("redis:a", samples=200)
        c = get_profile("redis:c", samples=200)
        # A = 50 % updates (SETs move 1 KB in); C = 100 % reads
        a_sets = sum(1 for w in a.work_samples if w.get("kv_value_byte") > 0)
        assert a_sets  # both GET-hits and SETs move value bytes
        assert a.notes != "" and c.notes != ""

    def test_snort_image_is_heaviest(self):
        image = mean_work(get_profile("snort:file_image", samples=100))
        exe = mean_work(get_profile("snort:file_executable", samples=100))
        assert image.get("dfa_deep_byte") > 20 * exe.get("dfa_deep_byte")

    def test_nat_table_size_changes_kind(self):
        small = mean_work(get_profile("nat:10k", samples=50))
        large = mean_work(get_profile("nat:1m", samples=50))
        assert small.get("nat_lookup") > 0 and small.get("nat_lookup_cold") == 0
        assert large.get("nat_lookup_cold") > 0 and large.get("nat_lookup") == 0

    def test_bm25_1k_walks_more_postings(self):
        small = mean_work(get_profile("bm25:100", samples=60))
        large = mean_work(get_profile("bm25:1k", samples=60))
        assert large.get("bm25_posting") > 3 * small.get("bm25_posting")

    def test_mica_batch_scales_work(self):
        b4 = mean_work(get_profile("mica:4", samples=60))
        b32 = mean_work(get_profile("mica:32", samples=60))
        assert b32.get("hash_probe") > 5 * b4.get("hash_probe")
        # batch-32 working set is priced cache-cold
        assert b32.get("kv_value_byte_cold") > 0
        assert b4.get("kv_value_byte_cold") == 0

    def test_rem_pcap_vs_mtu_density(self):
        pcap = get_profile("rem:file_image", samples=80)
        mtu = get_profile("rem:file_image@mtu", samples=80)
        pcap_density = mean_work(pcap).get("dfa_deep_byte") / pcap.payload_bytes
        mtu_density = mean_work(mtu).get("dfa_deep_byte") / mtu.payload_bytes
        assert pcap_density > 1.4 * mtu_density

    def test_compression_work_from_real_deflate(self):
        profile = get_profile("compression:txt", samples=8)
        work = mean_work(profile)
        assert work.get("lz_byte") == pytest.approx(4096)
        assert work.get("lz_match_search") > 0
        assert work.get("huffman_symbol") > 0

    def test_ovs_mostly_hardware_forwarded(self):
        profile = get_profile("ovs:100", samples=400)
        upcalls = sum(1 for w in profile.work_samples if w.get("flow_upcall") > 0)
        assert upcalls / len(profile.work_samples) < 0.05

    def test_fio_read_write_latency_asymmetry(self):
        read = get_profile("fio:read", samples=60)
        write = get_profile("fio:write", samples=60)
        assert read.latency_extra["snic-cpu"] > read.latency_extra["host"]
        assert write.latency_extra["snic-cpu"] < write.latency_extra["host"]

    def test_crypto_rsa_is_op_based(self):
        profile = get_profile("crypto:rsa", samples=10)
        assert profile.accel_op_based
        assert mean_work(profile).get("rsa_limb_mul") > 1e5
