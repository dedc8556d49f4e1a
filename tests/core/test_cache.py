"""Content-addressed result cache: keys, layers, and the report contract.

The acceptance criterion from the issue lives here: running Fig. 4 twice
at the same fidelity and seed must simulate each (function, platform)
pair exactly once — the second run is all cache hits and zero probes.
"""

from __future__ import annotations

import pickle

import pytest

from repro.obs import metrics
from repro.core.cache import (
    CODE_VERSION,
    ResultCache,
    cache_key,
    configure,
    get_cache,
)
from repro.core.rng import RandomStreams
from repro.experiments.fig4 import run_fig4

CHEAP_KEYS = ("udp:64", "dpdk:64")
SAMPLES = 20
N_REQUESTS = 600
SEED = 7


@pytest.fixture(autouse=True)
def _fresh_cache():
    configure(ResultCache())
    metrics.reset()
    yield
    configure(ResultCache())
    metrics.reset()


class TestCacheKey:
    def test_stable_across_calls(self):
        assert cache_key("a", 1, 2.5) == cache_key("a", 1, 2.5)

    def test_differs_by_any_part(self):
        base = cache_key("op", "udp:64", "host", 7)
        assert cache_key("op", "udp:64", "host", 8) != base
        assert cache_key("op", "udp:64", "snic", 7) != base
        assert cache_key("op", "udp:65", "host", 7) != base

    def test_salted_with_code_version(self):
        # The version participates in the digest: the key of the version
        # string itself must differ from any key that omitted it.
        assert CODE_VERSION  # non-empty
        assert cache_key() != cache_key(CODE_VERSION)

    def test_canonicalizes_containers(self):
        assert cache_key([1, 2]) == cache_key((1, 2))
        assert cache_key({"b": 2, "a": 1}) == cache_key({"a": 1, "b": 2})
        assert cache_key({3, 1, 2}) == cache_key({2, 3, 1})

    def test_type_distinction(self):
        assert cache_key(1) != cache_key("1")
        assert cache_key(1) != cache_key(1.0)

    def test_rejects_unhashable_objects(self):
        with pytest.raises(TypeError):
            cache_key(object())


class TestMemoryLayer:
    def test_miss_then_hit(self):
        store = ResultCache()
        key = cache_key("k")
        found, _ = store.get(key)
        assert not found
        store.put(key, {"x": 1})
        found, value = store.get(key)
        assert found and value == {"x": 1}
        assert store.stats.hits == 1
        assert store.stats.misses == 1

    def test_len_counts_entries(self):
        store = ResultCache()
        store.put(cache_key("a"), 1)
        store.put(cache_key("b"), 2)
        store.put(cache_key("a"), 3)
        assert len(store) == 2

    def test_instrument_counters_track_lookups(self):
        store = ResultCache()
        key = cache_key("counted")
        store.get(key)
        store.put(key, 1)
        store.get(key)
        assert metrics.counter(metrics.CACHE_MISSES).value == 1
        assert metrics.counter(metrics.CACHE_HITS).value == 1


class TestDiskLayer:
    def test_round_trip_across_instances(self, tmp_path):
        first = ResultCache(cache_dir=str(tmp_path))
        key = cache_key("disk", 1)
        first.put(key, [1.0, 2.0, 3.0])
        # A fresh instance (fresh process, conceptually) sees the entry.
        second = ResultCache(cache_dir=str(tmp_path))
        found, value = second.get(key)
        assert found and value == [1.0, 2.0, 3.0]
        assert second.stats.disk_hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = ResultCache(cache_dir=str(tmp_path))
        key = cache_key("corrupt")
        store.put(key, "payload")
        # Truncate the pickle on disk, then look it up from a cold cache.
        files = list(tmp_path.rglob("*"))
        payloads = [f for f in files if f.is_file()]
        assert payloads
        payloads[0].write_bytes(b"\x80not a pickle")
        cold = ResultCache(cache_dir=str(tmp_path))
        found, _ = cold.get(key)
        assert not found

    def test_no_partial_files_left_behind(self, tmp_path):
        store = ResultCache(cache_dir=str(tmp_path))
        store.put(cache_key("atomic"), list(range(100)))
        leftovers = [f for f in tmp_path.rglob("*")
                     if f.is_file() and f.suffix == ".tmp"]
        assert leftovers == []

    def test_unpicklable_value_stays_in_memory(self, tmp_path):
        store = ResultCache(cache_dir=str(tmp_path))
        key = cache_key("nopickle")
        value = lambda: None  # noqa: E731 — lambdas don't pickle
        with pytest.raises((pickle.PicklingError, AttributeError,
                            TypeError)):
            pickle.dumps(value)
        store.put(key, value)
        found, got = store.get(key)
        assert found and got is value


class TestReportContract:
    def test_second_fig4_run_is_all_hits(self):
        """Acceptance criterion: each (function, platform) pair at most once."""
        streams = RandomStreams(SEED)
        first = run_fig4(keys=CHEAP_KEYS, samples=SAMPLES,
                         n_requests=N_REQUESTS, streams=streams)
        probes_after_first = metrics.counter(metrics.PROBES).value
        misses_after_first = metrics.counter(metrics.CACHE_MISSES).value
        assert probes_after_first > 0
        assert misses_after_first == 2 * len(CHEAP_KEYS)

        second = run_fig4(keys=CHEAP_KEYS, samples=SAMPLES,
                          n_requests=N_REQUESTS, streams=RandomStreams(SEED))
        # No new probes ran: every operating point came from the cache.
        assert metrics.counter(metrics.PROBES).value == probes_after_first
        assert (metrics.counter(metrics.CACHE_MISSES).value
                == misses_after_first)
        assert metrics.counter(metrics.CACHE_HITS).value == 2 * len(CHEAP_KEYS)
        # And the cached objects are the same objects, not recomputations.
        for a, b in zip(first, second):
            assert a.host is b.host
            assert a.snic is b.snic

    def test_configure_swaps_the_global_cache(self):
        replacement = ResultCache()
        configure(replacement)
        assert get_cache() is replacement


class TestCorruptQuarantine:
    def test_corrupt_entry_renamed_not_deleted(self, tmp_path):
        """A torn pickle is quarantined to *.corrupt for post-mortem."""
        store = ResultCache(cache_dir=str(tmp_path))
        key = cache_key("quarantine")
        store.put(key, {"payload": 1})
        payload = next(f for f in tmp_path.rglob("*.pkl"))
        payload.write_bytes(b"\x80torn mid-write")
        cold = ResultCache(cache_dir=str(tmp_path))
        found, _ = cold.get(key)
        assert not found
        assert not payload.exists()
        corpses = list(tmp_path.rglob("*.corrupt"))
        assert len(corpses) == 1
        assert corpses[0].name == payload.name + ".corrupt"

    def test_corrupt_counter_and_stats(self, tmp_path):
        store = ResultCache(cache_dir=str(tmp_path))
        key = cache_key("quarantine-counted")
        store.put(key, [1, 2, 3])
        payload = next(f for f in tmp_path.rglob("*.pkl"))
        payload.write_bytes(b"garbage")
        cold = ResultCache(cache_dir=str(tmp_path))
        cold.get(key)
        assert cold.stats.corrupt == 1
        assert metrics.counter(metrics.CACHE_CORRUPT).value == 1

    def test_quarantined_key_is_writable_again(self, tmp_path):
        store = ResultCache(cache_dir=str(tmp_path))
        key = cache_key("quarantine-rewrite")
        store.put(key, "original")
        payload = next(f for f in tmp_path.rglob("*.pkl"))
        payload.write_bytes(b"garbage")
        cold = ResultCache(cache_dir=str(tmp_path))
        found, _ = cold.get(key)
        assert not found
        cold.put(key, "recomputed")
        fresh = ResultCache(cache_dir=str(tmp_path))
        found, value = fresh.get(key)
        assert found and value == "recomputed"


class TestArtifactDigests:
    def test_put_returns_sha256_of_pickle_bytes(self, tmp_path):
        import hashlib

        store = ResultCache(cache_dir=str(tmp_path))
        key = cache_key("digest")
        digest = store.put(key, [1.0, 2.0])
        expected = hashlib.sha256(
            pickle.dumps([1.0, 2.0], protocol=pickle.HIGHEST_PROTOCOL)
        ).hexdigest()
        assert digest == expected
        assert store.digest(key) == expected

    def test_disk_hit_records_digest(self, tmp_path):
        store = ResultCache(cache_dir=str(tmp_path))
        key = cache_key("digest-hit")
        written = store.put(key, {"a": 1})
        cold = ResultCache(cache_dir=str(tmp_path))
        found, _ = cold.get(key)
        assert found
        assert cold.digest(key) == written

    def test_unpicklable_put_returns_none(self):
        store = ResultCache()
        key = cache_key("digest-nopickle")
        assert store.put(key, lambda: None) is None
        assert store.digest(key) is None
