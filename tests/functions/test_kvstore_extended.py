"""Tests for the extended KV-store commands and LRU eviction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions.kvstore import KeyValueStore, encode_command


class TestExtendedCommands:
    @pytest.fixture
    def store(self):
        return KeyValueStore()

    def test_incr_from_missing(self, store):
        response, _ = store.execute(encode_command(b"INCR", b"counter"))
        assert response == b":1\r\n"
        response, _ = store.execute(encode_command(b"INCR", b"counter"))
        assert response == b":2\r\n"

    def test_incr_non_integer_errors(self, store):
        store.set(b"k", b"not-a-number")
        response, _ = store.execute(encode_command(b"INCR", b"k"))
        assert response.startswith(b"-ERR")

    def test_append(self, store):
        response, _ = store.execute(encode_command(b"APPEND", b"log", b"hello"))
        assert response == b":5\r\n"
        response, _ = store.execute(encode_command(b"APPEND", b"log", b" world"))
        assert response == b":11\r\n"
        value, _ = store.get(b"log")
        assert value == b"hello world"

    def test_mget(self, store):
        store.set(b"a", b"1")
        store.set(b"c", b"3")
        response, _ = store.execute(encode_command(b"MGET", b"a", b"b", b"c"))
        assert response == b"*3\r\n$1\r\n1\r\n$-1\r\n$1\r\n3\r\n"

    def test_expire_and_ttl(self, store):
        store.set(b"k", b"v", now=0.0)
        response, _ = store.execute(encode_command(b"TTL", b"k"), now=0.0)
        assert response == b":-1\r\n"  # no expiry
        response, _ = store.execute(encode_command(b"EXPIRE", b"k", b"10"), now=0.0)
        assert response == b":1\r\n"
        response, _ = store.execute(encode_command(b"TTL", b"k"), now=3.0)
        assert response == b":7\r\n"
        value, _ = store.get(b"k", now=11.0)
        assert value is None

    def test_expire_missing_key(self, store):
        response, _ = store.execute(encode_command(b"EXPIRE", b"nope", b"5"))
        assert response == b":0\r\n"

    def test_ttl_missing_key(self, store):
        response, _ = store.execute(encode_command(b"TTL", b"nope"))
        assert response == b":-2\r\n"


class TestLruEviction:
    def test_unbounded_store_never_evicts(self):
        store = KeyValueStore()
        for i in range(1000):
            store.set(b"k%d" % i, b"v" * 100)
        assert store.stats.evictions == 0

    def test_memory_accounting(self):
        store = KeyValueStore()
        store.set(b"key", b"value")
        used = store._memory_used
        assert used == len(b"key") + len(b"value") + 64

    def test_overwrite_does_not_leak(self):
        store = KeyValueStore()
        store.set(b"k", b"x" * 100)
        store.set(b"k", b"y" * 10)
        assert store._memory_used == len(b"k") + 10 + 64

    def test_eviction_at_capacity(self):
        store = KeyValueStore(max_memory_bytes=1000)
        for i in range(20):
            store.set(b"key%02d" % i, b"v" * 50)
        assert store.stats.evictions > 0
        assert store._memory_used <= 1000

    def test_lru_order_evicts_cold_keys(self):
        store = KeyValueStore(max_memory_bytes=4 * (3 + 10 + 64))
        for name in (b"aaa", b"bbb", b"ccc", b"ddd"):
            store.set(name, b"x" * 10)
        store.get(b"aaa")  # touch: aaa becomes most-recent
        store.set(b"eee", b"x" * 10)  # evicts bbb (the coldest)
        assert store.get(b"aaa")[0] is not None
        assert store.get(b"bbb")[0] is None

    def test_expired_entries_release_memory(self):
        store = KeyValueStore()
        store.set(b"k", b"v" * 100, now=0.0, ttl=1.0)
        store.get(b"k", now=2.0)
        assert store._memory_used == 0

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=6),
                              st.binary(min_size=1, max_size=30)),
                    min_size=1, max_size=80))
    @settings(max_examples=40, deadline=None)
    def test_memory_never_exceeds_budget(self, operations):
        budget = 600
        store = KeyValueStore(max_memory_bytes=budget)
        for key, value in operations:
            if len(key) + len(value) + 64 <= budget:
                store.set(key, value)
        assert store._memory_used <= budget
