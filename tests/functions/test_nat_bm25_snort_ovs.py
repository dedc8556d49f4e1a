"""Tests for NAT, BM25, Snort-style IDS, and the OvS model."""

import numpy as np
import pytest

from repro.functions.bm25 import Bm25Ranker, build_index, tokenize
from repro.functions.nat import CACHE_RESIDENT_ENTRIES, NatTable, build_random_table
from repro.functions.ovs import ESwitchDatapath, FlowTable, WildcardRule
from repro.functions.snort import IntrusionDetector, PacketMeta
from repro.functions.regex.rulesets import load_ruleset


class TestNat:
    def test_ingress_translation(self):
        table = NatTable()
        table.install(100, 80, 200, 8080)
        translated, work = table.translate_ingress((17, 1, 2, 100, 80))
        assert translated == (17, 1, 2, 200, 8080)
        assert work.get("nat_rewrite") == 1.0

    def test_ingress_miss_drops(self):
        table = NatTable()
        translated, _ = table.translate_ingress((17, 1, 2, 100, 80))
        assert translated is None
        assert table.dropped == 1

    def test_small_table_uses_warm_lookup(self):
        table = build_random_table(1000, np.random.default_rng(0))
        _, work = table.translate_ingress((17, 1, 2, 3, 4))
        assert work.get("nat_lookup") == 1.0
        assert work.get("nat_lookup_cold") == 0.0

    def test_large_table_uses_cold_lookup(self):
        table = NatTable()
        # install() is O(n); fake size via direct entries for speed
        for i in range(CACHE_RESIDENT_ENTRIES + 10):
            table._entries[(i, i)] = None  # type: ignore[assignment]
        _, work = table.translate_ingress((17, 1, 2, 3, 4))
        assert work.get("nat_lookup_cold") == 1.0

    def test_build_random_table_size(self):
        table = build_random_table(500, np.random.default_rng(1))
        assert 0 < len(table) <= 500  # collisions may dedupe a few


class TestBm25:
    @pytest.fixture
    def index(self):
        return build_index(
            [
                "the cat sat on the mat",
                "dogs chase cats in the yard",
                "quantum computing with superconducting qubits",
                "the dog barked at the mailman",
            ]
        )

    def test_tokenize(self):
        assert tokenize("Hello, World! 42") == ["hello", "world", "42"]

    def test_no_hit_query_returns_empty(self, index):
        ranker = Bm25Ranker(index)
        work = ranker.work_units("zebra xylophone")
        assert work.get("bm25_query_term") == 2.0
        assert work.get("bm25_posting") == 0.0

    def test_work_scales_with_postings(self, index):
        ranker = Bm25Ranker(index)
        common = ranker.work_units("the")
        rare = ranker.work_units("quantum")
        assert common.get("bm25_posting") > rare.get("bm25_posting")

    def test_empty_index_rejected(self):
        from repro.functions.bm25 import InvertedIndex

        with pytest.raises(ValueError):
            Bm25Ranker(InvertedIndex())

    def test_duplicate_doc_id_rejected(self, index):
        with pytest.raises(ValueError):
            index.add_document(0, "again")


class TestSnort:
    def test_alert_on_seeded_payload(self):
        detector = IntrusionDetector.from_named_ruleset("file_executable")
        fragment = load_ruleset("file_executable").seed_fragments[0]
        packet = PacketMeta("udp", 53, b"prefix " + fragment + b" suffix")
        alerts, work = detector.inspect(packet)
        assert alerts
        assert work.get("dfa_byte") == len(packet.payload)

    def test_clean_payload_no_alert(self):
        detector = IntrusionDetector.from_named_ruleset("file_executable")
        alerts, _ = detector.inspect(PacketMeta("udp", 53, b"innocuous text"))
        assert alerts == []

    def test_header_filter_skips_scan(self):
        detector = IntrusionDetector.from_named_ruleset("file_image")
        alerts, work = detector.inspect(PacketMeta("tcp", 80, b"\xff\xd8\xff"))
        assert alerts == []
        assert detector.stats.header_rejected == 1
        assert work.get("dfa_byte") == 0.0


    def test_stream_accounting(self):
        detector = IntrusionDetector.from_named_ruleset("file_image")
        fragment = load_ruleset("file_image").seed_fragments[0]
        results = [detector.inspect(PacketMeta("udp", 53, payload))
                   for payload in (b"clean payload", fragment)]
        assert sum(len(alerts) for alerts, _ in results) >= 1
        assert detector.stats.packets == 2
        assert all(work.get("pkt_touch_byte") > 0 for _, work in results)


class TestOvs:
    def _key(self, dst_port=80):
        return (6, 0x0A000001, 0x0A000002, 40000, dst_port)

    def test_upcall_then_cache_hit(self):
        table = FlowTable()
        table.add_rule(WildcardRule(priority=10, dst_port=80, out_port=3))
        entry, work = table.classify(self._key())
        assert entry is not None and entry.out_port == 3
        assert work.get("flow_upcall") == 1.0
        entry, work = table.classify(self._key())
        assert work.get("flow_lookup") == 1.0
        assert table.stats.cache_hits == 1

    def test_priority_ordering(self):
        table = FlowTable()
        table.add_rule(WildcardRule(priority=1, out_port=1))
        table.add_rule(WildcardRule(priority=100, dst_port=80, out_port=2))
        entry, _ = table.classify(self._key(80))
        assert entry.out_port == 2

    def test_no_rule_drops(self):
        table = FlowTable()
        entry, _ = table.classify(self._key())
        assert entry is None
        assert table.stats.drops == 1

    def test_cache_eviction(self):
        table = FlowTable(cache_capacity=2)
        table.add_rule(WildcardRule(priority=1, out_port=1))
        for port in (1, 2, 3):
            table.classify(self._key(port))
        assert len(table.cache) == 2

    def test_eswitch_offload_path(self):
        table = FlowTable()
        table.add_rule(WildcardRule(priority=1, out_port=1))
        datapath = ESwitchDatapath(table)
        path, work = datapath.process(self._key())
        assert path == "software"
        assert any(count > 0 for _, count in work.items())
        path, work = datapath.process(self._key())
        assert path == "hardware"
        assert all(count == 0 for _, count in work.items())  # bump-in-the-wire

    def test_hardware_fraction_grows_with_locality(self):
        table = FlowTable()
        table.add_rule(WildcardRule(priority=1, out_port=1))
        datapath = ESwitchDatapath(table)
        for _ in range(99):
            datapath.process(self._key())
        stats = table.stats
        assert stats.hardware_forwards / stats.packets > 0.9
