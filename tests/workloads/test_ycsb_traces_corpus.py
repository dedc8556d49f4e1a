"""Tests for YCSB generation, traces, and corpora."""

import numpy as np
import pytest

from repro.workloads.corpus import (
    document_corpus,
    make_compression_input,
    query_stream,
)
from repro.workloads.traces import hyperscaler_trace, summarize
from repro.workloads.ycsb import (
    WORKLOADS,
    WorkloadSpec,
    ZipfianGenerator,
    load_phase,
    run_phase,
)


class TestYcsb:
    def test_workload_letters(self):
        assert WORKLOADS["a"].read_fraction == 0.5
        assert WORKLOADS["b"].read_fraction == 0.95
        assert WORKLOADS["c"].read_fraction == 1.0

    def test_bad_mix_rejected(self):
        with pytest.raises(ValueError):
            WorkloadSpec("bad", read_fraction=0.5, update_fraction=0.2)

    def test_load_phase_covers_all_records(self):
        spec = WorkloadSpec("t", 1.0, 0.0, records=100, operations=10)
        rng = np.random.default_rng(0)
        operations = list(load_phase(spec, rng))
        assert len(operations) == 100
        assert len({op.key for op in operations}) == 100
        assert all(len(op.value) == spec.value_bytes for op in operations)

    def test_run_phase_mix(self):
        spec = WorkloadSpec("t", 0.95, 0.05, records=1000, operations=4000)
        rng = np.random.default_rng(1)
        operations = list(run_phase(spec, rng))
        reads = sum(op.kind == "read" for op in operations) / len(operations)
        assert reads == pytest.approx(0.95, abs=0.02)

    def test_zipfian_skew(self):
        rng = np.random.default_rng(2)
        zipf = ZipfianGenerator(1000, rng)
        draws = [zipf.next() for _ in range(20_000)]
        top = sum(1 for d in draws if d < 10)
        assert top / len(draws) > 0.25  # heavy head

    def test_zipfian_range(self):
        rng = np.random.default_rng(3)
        zipf = ZipfianGenerator(50, rng)
        draws = [zipf.next() for _ in range(5000)]
        assert min(draws) >= 0
        assert max(draws) <= 50

    def test_zipfian_validation(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(0, np.random.default_rng(0))


class TestTraces:
    def test_average_matches_table4(self):
        trace = hyperscaler_trace(duration_s=1800.0)
        assert trace.average_gbps() == pytest.approx(0.76, rel=1e-6)

    def test_bursts_exist(self):
        trace = hyperscaler_trace(duration_s=3600.0)
        assert trace.peak_gbps() > 4 * trace.average_gbps()

    def test_deterministic_per_seed(self):
        a = hyperscaler_trace(duration_s=600.0, seed=5)
        b = hyperscaler_trace(duration_s=600.0, seed=5)
        assert (a.gbps == b.gbps).all()

    def test_seed_changes_trace(self):
        a = hyperscaler_trace(duration_s=600.0, seed=5)
        b = hyperscaler_trace(duration_s=600.0, seed=6)
        assert not (a.gbps == b.gbps).all()

    def test_summary_keys(self):
        stats = summarize(hyperscaler_trace(duration_s=300.0))
        assert {"average_gbps", "peak_gbps", "p50_gbps", "p99_gbps", "duration_s"} <= set(stats)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            hyperscaler_trace(duration_s=0.1, interval_s=1.0)


class TestCorpus:
    def test_text_compresses_better_than_app(self):
        from repro.functions.compression import deflate

        text = make_compression_input("txt", 8192)
        app = make_compression_input("app", 8192)
        assert deflate.compress(text, 6).ratio > deflate.compress(app, 6).ratio

    def test_exact_sizes(self):
        assert len(make_compression_input("txt", 5000)) == 5000
        assert len(make_compression_input("app", 5000)) == 5000

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            make_compression_input("pdf", 100)

    def test_document_corpus_shape(self):
        rng = np.random.default_rng(0)
        docs = document_corpus(100, rng)
        assert len(docs) == 100
        words = [len(d.split()) for d in docs]
        assert 5 <= np.mean(words) <= 15

    def test_query_stream(self):
        rng = np.random.default_rng(1)
        queries = query_stream(20, rng, terms_per_query=4)
        assert len(queries) == 20
        assert all(len(q.split()) == 4 for q in queries)

    def test_queries_hit_corpus_vocabulary(self):
        rng = np.random.default_rng(2)
        docs = document_corpus(200, rng)
        vocabulary = set(" ".join(docs).split())
        queries = query_stream(30, np.random.default_rng(3))
        hits = sum(1 for q in queries for t in q.split() if t in vocabulary)
        assert hits > 10
