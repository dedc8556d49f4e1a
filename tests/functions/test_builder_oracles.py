"""Fast fixture-builder paths against the per-item paths they replace.

The profile builders spend their time in a few function-layer hot spots;
each was rewritten to do the same work more cheaply and must leave
exactly the same bytes, state and statistics behind:

* AES ``_mix_columns`` reads GF(2^8) x2/x3 tables instead of looping in
  ``_mul`` (oracle: the old loop, plus the FIPS-197 C.1 known answer);
* ``huffman.BitWriter`` packs into an int accumulator instead of setting
  one bit at a time (oracle: the old bit-by-bit writer);
* ``KeyValueStore.load`` bulk-loads a YCSB load phase (oracle: one
  ``set`` per pair — same entries, LRU order, stats, ``memory_used``);
* ``MicaStore.put_many`` hashes every key in one numpy pass (oracle: one
  ``put`` per pair — same logs, buckets and evictions).
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions.compression import huffman
from repro.functions.crypto import aes
from repro.functions.kvstore import KeyValueStore
from repro.functions.mica import MicaStore, _hash64, _hash64_many
from repro.workloads import ycsb


# ---------------------------------------------------------------------------
# AES MixColumns
# ---------------------------------------------------------------------------


def frozen_mix_columns(state):
    """MixColumns as it was before the lookup tables."""
    for c in range(4):
        col = state[4 * c: 4 * c + 4]
        state[4 * c + 0] = (aes._mul(col[0], 2) ^ aes._mul(col[1], 3)
                            ^ col[2] ^ col[3])
        state[4 * c + 1] = (col[0] ^ aes._mul(col[1], 2)
                            ^ aes._mul(col[2], 3) ^ col[3])
        state[4 * c + 2] = (col[0] ^ col[1] ^ aes._mul(col[2], 2)
                            ^ aes._mul(col[3], 3))
        state[4 * c + 3] = (aes._mul(col[0], 3) ^ col[1] ^ col[2]
                            ^ aes._mul(col[3], 2))


class TestAes:
    def test_fips197_c1_known_answer(self):
        # FIPS-197 Appendix C.1 (AES-128).
        key = bytes(range(16))
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        round_keys = aes.expand_key(key)
        ciphertext = aes.encrypt_block(plaintext, round_keys)
        assert ciphertext.hex() == "69c4e0d86a7b0430d8cdb78070b4c55a"
        assert aes.decrypt_block(ciphertext, round_keys) == plaintext

    @given(st.binary(min_size=16, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_mix_columns_matches_frozen_loop(self, block):
        state, expected = list(block), list(block)
        aes._mix_columns(state)
        frozen_mix_columns(expected)
        assert state == expected

    def test_tables_are_the_gf_products(self):
        assert aes._MUL2 == [aes._mul(b, 2) for b in range(256)]
        assert aes._MUL3 == [aes._mul(b, 3) for b in range(256)]


# ---------------------------------------------------------------------------
# Huffman BitWriter
# ---------------------------------------------------------------------------


class FrozenBitWriter:
    """The bit-at-a-time writer the int accumulator replaced."""

    def __init__(self):
        self._bytes = bytearray()
        self._bit_position = 0

    def write(self, code, length):
        for shift in range(length - 1, -1, -1):
            bit = (code >> shift) & 1
            if self._bit_position == 0:
                self._bytes.append(0)
            if bit:
                self._bytes[-1] |= 1 << (7 - self._bit_position)
            self._bit_position = (self._bit_position + 1) % 8

    def getvalue(self):
        return bytes(self._bytes)

    @property
    def bit_length(self):
        if not self._bytes:
            return 0
        return (len(self._bytes) - 1) * 8 + (self._bit_position or 8)


WRITES = st.lists(
    st.tuples(st.integers(min_value=0, max_value=(1 << 40) - 1),
              st.integers(min_value=0, max_value=24)),
    max_size=80)


class TestBitWriter:
    @given(WRITES)
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_as_bit_by_bit_writer(self, writes):
        # Codes may carry bits above ``length``; both writers ignore them.
        fast, slow = huffman.BitWriter(), FrozenBitWriter()
        for code, length in writes:
            fast.write(code, length)
            slow.write(code, length)
            assert fast.bit_length == slow.bit_length
        assert fast.getvalue() == slow.getvalue()

    def test_deflate_payload_unchanged_by_writer(self):
        from repro.functions.compression import deflate

        data = b"abracadabra " * 300 + bytes(range(256))
        result = deflate.compress(data, level=9)
        restored, _ = deflate.decompress(result.payload)
        assert restored == data


# ---------------------------------------------------------------------------
# KeyValueStore.load
# ---------------------------------------------------------------------------


def store_state(store):
    return ([(key, entry.value, entry.expires_at)
             for key, entry in store._data.items()],
            store.stats, store.memory_used)


def set_each(store, pairs):
    for key, value in pairs:
        store.set(key, value)


KV_PAIRS = st.lists(
    st.tuples(st.binary(min_size=0, max_size=4), st.binary(max_size=12)),
    max_size=60)


class TestKeyValueStoreLoad:
    @given(KV_PAIRS, st.sampled_from([None, 200, 1000]))
    @settings(max_examples=200, deadline=None)
    def test_matches_set_per_pair(self, pairs, max_memory):
        # Short keys repeat often, exercising overwrite order; a budget
        # exercises eviction.
        bulk = KeyValueStore(max_memory_bytes=max_memory)
        each = KeyValueStore(max_memory_bytes=max_memory)
        assert bulk.load(iter(pairs)) == len(pairs)
        set_each(each, pairs)
        assert store_state(bulk) == store_state(each)

    def test_load_onto_existing_entries(self):
        bulk, each = KeyValueStore(), KeyValueStore()
        for store in (bulk, each):
            store.set(b"a", b"old-value", now=1.0, ttl=5.0)
            store.set(b"b", b"x")
        pairs = [(b"c", b"1"), (b"a", b"22"), (b"b", b"333")]
        bulk.load(pairs)
        set_each(each, pairs)
        assert store_state(bulk) == store_state(each)

    @pytest.mark.parametrize("workload", ["a", "c"])
    def test_ycsb_load_phase(self, workload):
        spec = ycsb.WORKLOADS[workload]
        bulk, each = KeyValueStore(), KeyValueStore()
        bulk.load((op.key, op.value) for op in
                  ycsb.load_phase(spec, np.random.default_rng(3)))
        set_each(each, ((op.key, op.value) for op in
                        ycsb.load_phase(spec, np.random.default_rng(3))))
        assert store_state(bulk) == store_state(each)
        assert len(bulk) == spec.records


# ---------------------------------------------------------------------------
# MicaStore.put_many
# ---------------------------------------------------------------------------


def mica_state(store):
    return ([(hashlib.sha256(p.log).hexdigest(), p.head, p.wrapped,
              [[(slot.tag, slot.offset) for slot in bucket]
               for bucket in p.buckets])
             for p in store.partitions],
            store.evictions)


def small_mica():
    # Tiny buckets and logs: overflow evictions and log wrap both happen.
    return MicaStore(partitions=3, buckets_per_partition=4,
                     log_bytes_per_partition=256)


class TestMicaPutMany:
    @given(st.lists(st.binary(max_size=20), max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_vectorized_hash_matches_scalar(self, keys):
        assert _hash64_many(keys) == [_hash64(key) for key in keys]

    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=10),
                              st.binary(max_size=24)), max_size=120))
    @settings(max_examples=150, deadline=None)
    def test_matches_put_per_pair(self, pairs):
        bulk, each = small_mica(), small_mica()
        assert bulk.put_many(iter(pairs)) == len(pairs)
        for key, value in pairs:
            each.put(key, value)
        assert mica_state(bulk) == mica_state(each)

    def test_profile_load_phase(self):
        keys = [b"mica-%07d" % i for i in range(20_000)]
        value = bytes(range(256))
        bulk, each = MicaStore(partitions=8), MicaStore(partitions=8)
        bulk.put_many((key, value) for key in keys)
        for key in keys:
            each.put(key, value)
        assert mica_state(bulk) == mica_state(each)
        assert bulk.get(keys[123])[0] == value
