"""Fast fixture-builder paths against the per-item paths they replace.

The profile builders spend their time in a few function-layer hot spots;
each was rewritten to do the same work more cheaply and must leave
exactly the same bytes, state and statistics behind.  Every rewrite is
checked with exact equality against a frozen copy of the code it
replaced (or, where the old path still ships, against that path):

* AES ``_mix_columns`` reads GF(2^8) x2/x3 tables instead of looping in
  ``_mul``, and ``encrypt_block`` fuses SubBytes with ShiftRows (oracle:
  the old loops, plus the FIPS-197 C.1 known answer);
* ``huffman.BitWriter`` packs into an int accumulator instead of setting
  one bit at a time (oracle: the old bit-by-bit writer);
* ``KeyValueStore.load`` bulk-loads a YCSB load phase (oracle: one
  ``set`` per pair — same entries, LRU order, stats, memory used), and
  ``ycsb.load_records`` yields the old load phase's (key, value) pairs;
* ``MicaStore.put_many`` hashes every key in one numpy pass (oracle: one
  ``put`` per pair — same logs, buckets and evictions), and
  ``get_batch`` tallies its work (oracle: the old per-get merge);
* ``corpus.text_file`` and the BM25 generators bisect a precomputed cdf
  with the same draws ``rng.choice(p=...)`` makes (oracle: ``choice``);
* ``lz77.compress`` precomputes hash keys and skips candidates that
  differ at the best length (oracle: the old match loop — same tokens
  and chain probes), and ``deflate.measure`` sizes the payload that
  ``deflate.compress`` emits;
* ``automata.determinize`` merges moves per byte class (oracle: the old
  per-byte subset construction — the whole ``Dfa``), and the matcher's
  scan jumps over bytes that keep it at the root (oracle: the old
  byte-at-a-time scan).
"""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.work import WorkUnits
from repro.functions.compression import deflate, huffman, lz77
from repro.functions.crypto import aes
from repro.functions.kvstore import KeyValueStore
from repro.functions.mica import MicaStore, _hash64, _hash64_many
from repro.functions.regex import automata
from repro.functions.regex.engine import MultiPatternMatcher
from repro.functions.regex.rulesets import RULESET_NAMES, load_ruleset
from repro.workloads import corpus
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


def frozen_encrypt_block(block, round_keys):
    """AES-128 encryption as it was before SubBytes and ShiftRows fused."""
    def add_round_key(state, round_key):
        for i in range(16):
            state[i] ^= round_key[i]

    def sub_bytes(state):
        for i in range(16):
            state[i] = aes._SBOX[state[i]]

    def shift_rows(state):
        for r in range(1, 4):
            row = [state[4 * c + r] for c in range(4)]
            row = row[r:] + row[:r]
            for c in range(4):
                state[4 * c + r] = row[c]

    state = list(block)
    add_round_key(state, round_keys[0])
    for round_index in range(1, 10):
        sub_bytes(state)
        shift_rows(state)
        frozen_mix_columns(state)
        add_round_key(state, round_keys[round_index])
    sub_bytes(state)
    shift_rows(state)
    add_round_key(state, round_keys[10])
    return bytes(state)


def frozen_encrypt_ctr(data, key, nonce=0):
    round_keys = aes.expand_key(key)
    out = bytearray()
    blocks = 0
    for offset in range(0, len(data), 16):
        counter_block = (nonce + blocks).to_bytes(16, "big")
        keystream = frozen_encrypt_block(counter_block, round_keys)
        chunk = data[offset: offset + 16]
        out.extend(b ^ k for b, k in zip(chunk, keystream))
        blocks += 1
    return bytes(out), WorkUnits({"aes_block": float(blocks)})


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

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_encrypt_block_matches_frozen_rounds(self, block, key):
        round_keys = aes.expand_key(key)
        assert aes.encrypt_block(block, round_keys) == frozen_encrypt_block(
            block, round_keys)

    @given(st.binary(max_size=100), st.integers(0, 2**64))
    @settings(max_examples=100, deadline=None)
    def test_ctr_matches_frozen_bytewise_xor(self, data, nonce):
        key = b"0123456789abcdef"
        ciphertext, work = aes.encrypt_ctr(data, key, nonce)
        expected, expected_work = frozen_encrypt_ctr(data, key, nonce)
        assert ciphertext == expected
        assert list(work.items()) == list(expected_work.items())
        assert aes.encrypt_ctr(ciphertext, key, nonce)[0] == data


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
            store.stats, store._memory_used)


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
        bulk.load(ycsb.load_records(spec, np.random.default_rng(3)))
        set_each(each, ycsb.load_records(spec, np.random.default_rng(3)))
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


# ---------------------------------------------------------------------------
# MicaStore.get_batch
# ---------------------------------------------------------------------------


def frozen_get_batch(store, keys):
    """``get_batch`` as it was: one ``get`` per key, merged in order."""
    total = WorkUnits()
    values = []
    for key in keys:
        value, work = store.get(key)
        values.append(value)
        total.merge(work)
    return values, total


class TestMicaGetBatch:
    @given(st.lists(st.tuples(st.binary(min_size=1, max_size=10),
                              st.binary(max_size=24)), max_size=60),
           st.lists(st.binary(min_size=1, max_size=10), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_get_batch_matches_per_get_merge(self, pairs, probes):
        # Small rings wrap and tags collide, so reads hit, miss and go
        # stale; the batch keys mix stored and unknown keys.
        store = small_mica()
        store.put_many(pairs)
        keys = [key for key, _ in pairs[::2]] + probes
        values, work = store.get_batch(keys)
        expected_values, expected_work = frozen_get_batch(store, keys)
        assert values == expected_values
        # Same kinds in the same order: pricing sums them in that order.
        assert list(work.items()) == list(expected_work.items())


# ---------------------------------------------------------------------------
# YCSB load phase and the corpus generators
# ---------------------------------------------------------------------------


def frozen_load_phase(spec, rng):
    value = bytes(rng.integers(ord("a"), ord("z") + 1,
                               size=spec.value_bytes, dtype=np.uint8))
    for index in range(spec.records):
        yield ycsb.Operation("update", ycsb.record_key(index), value)


def frozen_text_file(size_bytes, rng):
    """``corpus.text_file`` as it was: one ``rng.choice`` per word."""
    vocabulary = corpus._vocabulary(rng)
    ranks = np.arange(1, len(vocabulary) + 1, dtype=float)
    weights = 1.0 / ranks
    weights /= weights.sum()
    pieces = []
    total = 0
    sentence_len = 0
    while total < size_bytes:
        word = vocabulary[int(rng.choice(len(vocabulary), p=weights))]
        sentence_len += 1
        if sentence_len > int(rng.integers(6, 14)):
            word += "."
            sentence_len = 0
        pieces.append(word)
        total += len(word) + 1
    text = (" ".join(pieces)).encode()
    if len(text) < size_bytes:
        text += b" " + text
    return text[:size_bytes]


def frozen_document_corpus(documents, rng, mean_words=10):
    vocabulary = corpus._vocabulary(rng, size=400)
    ranks = np.arange(1, len(vocabulary) + 1, dtype=float)
    weights = 1.0 / ranks
    weights /= weights.sum()
    out = []
    for _ in range(documents):
        n_words = max(3, int(rng.normal(mean_words, 2)))
        indices = rng.choice(len(vocabulary), size=n_words, p=weights)
        out.append(" ".join(vocabulary[int(i)] for i in indices))
    return out


def frozen_query_stream(count, rng, terms_per_query=3):
    vocabulary = corpus._vocabulary(rng, size=400)
    ranks = np.arange(1, len(vocabulary) + 1, dtype=float)
    weights = 1.0 / ranks
    weights /= weights.sum()
    out = []
    for _ in range(count):
        indices = rng.choice(len(vocabulary), size=terms_per_query, p=weights)
        out.append(" ".join(vocabulary[int(i)] for i in indices))
    return out


class TestGenerators:
    @pytest.mark.parametrize("workload", ["a", "c"])
    def test_load_records_are_the_load_phase(self, workload):
        spec = ycsb.WORKLOADS[workload]
        records = ycsb.load_records(spec, np.random.default_rng(5))
        expected = frozen_load_phase(spec, np.random.default_rng(5))
        assert list(records) == [(op.key, op.value) for op in expected]

    def test_load_records_draw_lazily(self):
        # Like the old generator, nothing is drawn until the first record.
        spec = ycsb.WORKLOADS["a"]
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        ycsb.load_records(spec, rng)
        assert rng.random() == twin.random()

    @given(st.integers(0, 2**32 - 1), st.integers(1, 20_000))
    @settings(max_examples=40, deadline=None)
    def test_text_file_matches_choice(self, seed, size):
        assert (corpus.text_file(size, np.random.default_rng(seed))
                == frozen_text_file(size, np.random.default_rng(seed)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 60), st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_bm25_generators_match_choice(self, seed, count, terms):
        rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (corpus.document_corpus(count, rng)
                == frozen_document_corpus(count, twin))
        assert (corpus.query_stream(count, rng, terms_per_query=terms)
                == frozen_query_stream(count, twin, terms_per_query=terms))
        # and both leave the generator at the same point
        assert rng.random() == twin.random()


# ---------------------------------------------------------------------------
# LZ77 and DEFLATE
# ---------------------------------------------------------------------------


def frozen_lz77(data, level=9):
    """``lz77.compress`` as it was: hash per position, full match scan
    for every candidate."""
    max_chain = lz77.LEVEL_MAX_CHAIN[level]
    tokens = []
    head = {}
    prev = {}
    probes = 0
    pos = 0
    n = len(data)

    def hash3(p):
        return (data[p] << 10) ^ (data[p + 1] << 5) ^ data[p + 2]

    def match_length(candidate, p):
        limit = min(lz77.MAX_MATCH, n - p)
        length = 0
        while length < limit and data[candidate + length] == data[p + length]:
            length += 1
        return length

    while pos < n:
        best_length = 0
        best_distance = 0
        if pos + lz77.MIN_MATCH <= n:
            key = hash3(pos)
            candidate = head.get(key)
            chain = 0
            while candidate is not None and chain < max_chain:
                distance = pos - candidate
                if distance > lz77.WINDOW_SIZE:
                    break
                probes += 1
                chain += 1
                length = match_length(candidate, pos)
                if length > best_length:
                    best_length = length
                    best_distance = distance
                    if length >= lz77.MAX_MATCH:
                        break
                candidate = prev.get(candidate)
            prev[pos] = head.get(key)
            head[key] = pos
        if best_length >= lz77.MIN_MATCH:
            tokens.append(lz77.Match(best_length, best_distance))
            end = pos + best_length
            for p in range(pos + 1, min(end, n - lz77.MIN_MATCH + 1)):
                key = hash3(p)
                prev[p] = head.get(key)
                head[key] = p
            pos = end
        else:
            tokens.append(lz77.Literal(data[pos]))
            pos += 1
    return tokens, probes


LENGTH_EDGES = [3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 24, 32, 48, 64, 96, 128, 192, 258]
DIST_EDGES = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384,
              512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384,
              24576, 32768]


def frozen_bucket(value, edges, top, symbol_base):
    """The old linear bucket search for lengths and distances."""
    for index in range(len(edges) - 1, -1, -1):
        base = edges[index]
        if value >= base:
            next_base = edges[index + 1] if index + 1 < len(edges) else top
            extra_bits = max(0, (next_base - base - 1).bit_length())
            return symbol_base + index, extra_bits, value - base
    raise ValueError(value)


def frozen_deflate(data, level=9):
    """``deflate.compress`` as it was: payload bytes and work."""
    tokens = lz77.compress(data, level=level)
    litlen_symbols, dist_symbols = [], []
    for token in tokens.tokens:
        if isinstance(token, lz77.Literal):
            litlen_symbols.append((token.byte, 0, 0))
        else:
            litlen_symbols.append(frozen_bucket(token.length, LENGTH_EDGES, 259, 257))
            dist_symbols.append(frozen_bucket(token.distance, DIST_EDGES, 32769, 0))
    litlen_symbols.append((deflate.END_OF_BLOCK, 0, 0))
    litlen_freq, dist_freq = {}, {}
    for symbol, _, _ in litlen_symbols:
        litlen_freq[symbol] = litlen_freq.get(symbol, 0) + 1
    for symbol, _, _ in dist_symbols:
        dist_freq[symbol] = dist_freq.get(symbol, 0) + 1
    litlen_lengths = huffman.code_lengths(litlen_freq)
    dist_lengths = huffman.code_lengths(dist_freq)
    litlen_codes = huffman.canonical_codes(litlen_lengths)
    dist_codes = huffman.canonical_codes(dist_lengths)
    writer = huffman.BitWriter()
    dist_iter = iter(dist_symbols)
    emitted = 0
    for symbol, extra_bits, extra in litlen_symbols:
        writer.write(*litlen_codes[symbol])
        emitted += 1
        if extra_bits:
            writer.write(extra, extra_bits)
        if symbol >= 257:
            dist_symbol, dist_extra_bits, dist_extra = next(dist_iter)
            writer.write(*dist_codes[dist_symbol])
            emitted += 1
            if dist_extra_bits:
                writer.write(dist_extra, dist_extra_bits)
    header = (deflate.MAGIC + struct.pack("<IB", len(data), level)
              + huffman.serialize_lengths(litlen_lengths, deflate.LITLEN_ALPHABET)
              + huffman.serialize_lengths(dist_lengths, deflate.DIST_ALPHABET))
    work = tokens.work_units().add("huffman_symbol", float(emitted))
    return header + writer.getvalue(), work


# Random bytes rarely repeat; a four-letter alphabet and repeated runs
# give long matches, hash chains past ``max_chain`` and MAX_MATCH caps.
LOW_ENTROPY = st.one_of(
    st.binary(max_size=600).map(lambda raw: bytes(b % 4 + 97 for b in raw)),
    st.tuples(st.binary(min_size=1, max_size=40), st.integers(1, 30)).map(
        lambda pair: pair[0] * pair[1]),
)
LZ_INPUTS = st.one_of(st.binary(max_size=600), LOW_ENTROPY)


class TestLz77:
    @given(LZ_INPUTS, st.sampled_from(sorted(lz77.LEVEL_MAX_CHAIN)))
    @settings(max_examples=300, deadline=None)
    def test_same_tokens_and_probes_as_frozen(self, data, level):
        result = lz77.compress(data, level=level)
        tokens, probes = frozen_lz77(data, level)
        assert result.tokens == tokens
        assert result.chain_probes == probes
        assert lz77.decompress(result.tokens) == data

    @pytest.mark.parametrize("label", ["app", "txt"])
    def test_profile_chunks(self, label):
        data = corpus.make_compression_input(label, 4096 * 6)
        for offset in range(0, len(data), 4096):
            piece = data[offset: offset + 4096]
            result = lz77.compress(piece)
            assert (result.tokens, result.chain_probes) == frozen_lz77(piece)


class TestDeflate:
    @given(LZ_INPUTS)
    @settings(max_examples=200, deadline=None)
    def test_compress_and_measure_match_frozen(self, data):
        payload, work = frozen_deflate(data)
        emitted = deflate.compress(data)
        sized = deflate.measure(data)
        assert emitted.payload == payload
        assert sized.payload is None
        assert emitted.compressed_size == sized.compressed_size == len(payload)
        for result in (emitted, sized):
            assert list(result.work.items()) == list(work.items())
            assert result.ratio == len(data) / len(payload)

    def test_buckets_match_the_linear_search(self):
        for length in range(lz77.MIN_MATCH, lz77.MAX_MATCH + 1):
            assert deflate._length_bucket(length) == frozen_bucket(
                length, LENGTH_EDGES, 259, 257)
        for distance in range(1, lz77.WINDOW_SIZE + 1):
            assert deflate._distance_bucket(distance) == frozen_bucket(
                distance, DIST_EDGES, 32769, 0)


# ---------------------------------------------------------------------------
# Subset construction and the matcher's scan
# ---------------------------------------------------------------------------


def frozen_determinize(nfa, max_states=20000):
    """``determinize`` as it was: per-state byte->targets maps merged one
    byte at a time, new DFA states discovered in byte order."""
    single_mask = []
    for s in range(len(nfa.states)):
        mask = 0
        for member in nfa.closure({s}):
            mask |= 1 << member
        single_mask.append(mask)
    state_moves = []
    for s, state in enumerate(nfa.states):
        per = {}
        if s == nfa.start:
            for byte in range(256):
                per[byte] = per.get(byte, 0) | (1 << nfa.start)
        for allowed, target in state.transitions:
            for byte in allowed:
                per[byte] = per.get(byte, 0) | (1 << target)
        state_moves.append(per)
    start_bit = 1 << nfa.start
    start_set = single_mask[nfa.start]
    index_of = {start_set: 0}
    order = [start_set]
    transitions = []
    depth_class = [0]
    work = [start_set]
    while work:
        current = work.pop()
        current_index = index_of[current]
        while len(transitions) < (current_index + 1) * 256:
            transitions.extend([0] * 256)
        moves = {}
        remaining = current
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            for byte, bits in state_moves[low.bit_length() - 1].items():
                moves[byte] = moves.get(byte, 0) | bits
        for byte, targets in moves.items():
            targets |= start_bit
            closure = 0
            bits = targets
            while bits:
                low = bits & -bits
                bits ^= low
                closure |= single_mask[low.bit_length() - 1]
            index = index_of.get(closure)
            if index is None:
                index = len(order)
                if index >= max_states:
                    raise ValueError("too many states")
                index_of[closure] = index
                order.append(closure)
                depth_class.append(min(depth_class[current_index] + 1, 255))
                work.append(closure)
            transitions[current_index * 256 + byte] = index
    accepts = []
    for subset in order:
        ids = []
        bits = subset
        while bits:
            low = bits & -bits
            bits ^= low
            accept = nfa.states[low.bit_length() - 1].accepts
            if accept is not None:
                ids.append(accept)
        accepts.append(tuple(sorted(ids)))
    return automata.Dfa(transitions=transitions, accepts=accepts, start=0,
                        depth_class=depth_class)


def frozen_scan(dfa, payload):
    """The matcher's scan as it was: one table step per byte."""
    state = dfa.start
    matches = []
    deep_visits = 0
    for offset, byte in enumerate(payload):
        state = dfa.transitions[state * 256 + byte]
        if dfa.depth_class[state]:
            if dfa.depth_class[state] >= 2:
                deep_visits += 1
            for pattern_id in dfa.accepts[state]:
                matches.append((pattern_id, offset + 1))
    return matches, (len(payload), deep_visits, len(matches))


def build_nfa(patterns):
    nfa = automata.Nfa()
    for pattern_id, pattern in enumerate(patterns):
        nfa.add_pattern(pattern, pattern_id)
    return nfa


# The parser's literal, class and repeat grammar: escapes, the dot,
# ranges and negated classes, then counted and open quantifiers.
PATTERN_ATOMS = st.sampled_from(
    ["a", "b", "z", "0", "\\x00", "\\xff", ".", "\\d", "\\w", "\\s", "[ab]",
     "[a-f0-3]", "[^a]", "[^\\x00-\\x7f]", "(ab|c)"])
PATTERN_QUANTS = st.sampled_from(["", "*", "+", "?", "{2}", "{1,3}", "{0,2}"])
MANDATORY_QUANTS = st.sampled_from(["", "+", "{2}", "{1,3}"])


@st.composite
def pattern_sets(draw):
    patterns = []
    for _ in range(draw(st.integers(1, 4))):
        pieces = [draw(PATTERN_ATOMS) + draw(MANDATORY_QUANTS)]
        pieces += [draw(PATTERN_ATOMS) + draw(PATTERN_QUANTS)
                   for _ in range(draw(st.integers(0, 3)))]
        order = draw(st.permutations(pieces))
        patterns.append("".join(order))
    return patterns


SCAN_PAYLOADS = st.one_of(
    st.binary(max_size=80),
    st.binary(max_size=80).map(lambda raw: bytes(b"abz0 \x00\xff"[b % 7] for b in raw)),
)


class TestSubsetConstruction:
    @given(pattern_sets())
    @settings(max_examples=100, deadline=None)
    def test_random_pattern_sets_build_the_frozen_dfa(self, patterns):
        nfa = build_nfa(patterns)
        assert automata.determinize(nfa) == frozen_determinize(nfa)

    @pytest.mark.parametrize("name", RULESET_NAMES)
    def test_named_rulesets_build_the_frozen_dfa(self, name):
        nfa = build_nfa(load_ruleset(name).patterns)
        assert automata.determinize(nfa) == frozen_determinize(nfa)

    def test_state_limit_still_enforced(self):
        nfa = build_nfa(["[ab]*a[ab]{6}"])
        with pytest.raises(ValueError):
            automata.determinize(nfa, max_states=10)


class TestScan:
    @given(pattern_sets(), SCAN_PAYLOADS)
    @settings(max_examples=200, deadline=None)
    def test_root_skipping_scan_matches_frozen(self, patterns, payload):
        matcher = MultiPatternMatcher(patterns)
        matches, stats = matcher.scan(payload)
        expected, counts = frozen_scan(matcher.dfa, payload)
        assert matches == expected
        assert (stats.bytes_scanned, stats.deep_visits, stats.matches) == counts

    @pytest.mark.parametrize("name", RULESET_NAMES)
    def test_named_rulesets_on_random_payloads(self, name):
        matcher = MultiPatternMatcher(list(load_ruleset(name).patterns))
        rng = np.random.default_rng(11)
        fragments = load_ruleset(name).seed_fragments
        for _ in range(40):
            payload = bytes(rng.integers(0, 256, size=int(rng.integers(0, 1500)),
                                         dtype=np.uint8))
            if fragments:
                payload += fragments[int(rng.integers(0, len(fragments)))] + payload[:64]
            matches, stats = matcher.scan(payload)
            expected, counts = frozen_scan(matcher.dfa, payload)
            assert matches == expected
            assert (stats.bytes_scanned, stats.deep_visits, stats.matches) == counts
