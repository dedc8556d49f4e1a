"""Tests for LZ77, Huffman, and the DEFLATE pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions.compression import deflate, huffman, lz77


class TestLz77:
    def test_all_literals_for_unique_bytes(self):
        result = lz77.compress(bytes(range(200)), level=9)
        assert all(isinstance(t, lz77.Literal) for t in result.tokens)

    def test_repetition_produces_matches(self):
        result = lz77.compress(b"abcabcabcabcabc", level=9)
        assert any(isinstance(t, lz77.Match) for t in result.tokens)

    def test_roundtrip(self):
        data = b"the quick brown fox " * 50
        result = lz77.compress(data, level=9)
        assert lz77.decompress(result.tokens) == data

    def test_level_validation(self):
        with pytest.raises(ValueError):
            lz77.compress(b"x", level=2)

    def test_higher_level_probes_more(self):
        data = (b"abcdefgh" * 64 + b"abcdefghijklmnop" * 32) * 4
        fast = lz77.compress(data, level=1)
        best = lz77.compress(data, level=9)
        assert best.chain_probes >= fast.chain_probes

    def test_work_units(self):
        result = lz77.compress(b"aaaaaaaaaa", level=9)
        units = result.work_units()
        assert units.get("lz_byte") == 10.0

    def test_match_length_capped(self):
        result = lz77.compress(b"a" * 1000, level=9)
        for token in result.tokens:
            if isinstance(token, lz77.Match):
                assert token.length <= lz77.MAX_MATCH

    def test_decompress_rejects_bad_distance(self):
        with pytest.raises(ValueError):
            lz77.decompress([lz77.Match(3, 10)])

    @given(st.binary(min_size=0, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, data):
        result = lz77.compress(data, level=6)
        assert lz77.decompress(result.tokens) == data


class TestHuffman:
    def test_single_symbol(self):
        lengths = huffman.code_lengths({65: 10})
        assert lengths == {65: 1}

    def test_empty(self):
        assert huffman.code_lengths({}) == {}

    def test_more_frequent_gets_shorter_code(self):
        lengths = huffman.code_lengths({0: 100, 1: 10, 2: 10, 3: 1})
        assert lengths[0] <= lengths[3]

    def test_kraft_inequality(self):
        frequencies = {i: (i + 1) ** 2 for i in range(40)}
        lengths = huffman.code_lengths(frequencies)
        assert sum(2.0 ** -l for l in lengths.values()) <= 1.0 + 1e-9

    def test_canonical_codes_prefix_free(self):
        lengths = huffman.code_lengths({i: i + 1 for i in range(10)})
        codes = huffman.canonical_codes(lengths)
        items = [(format(code, f"0{length}b")) for code, length in codes.values()]
        for a in items:
            for b in items:
                if a != b:
                    assert not b.startswith(a) or len(b) == len(a)

    def test_bitwriter_reader_roundtrip(self):
        writer = huffman.BitWriter()
        writer.write(0b101, 3)
        writer.write(0b0110, 4)
        reader = huffman.BitReader(writer.getvalue())
        assert reader.read_bits(3) == 0b101
        assert reader.read_bits(4) == 0b0110

    def test_reader_eof(self):
        reader = huffman.BitReader(b"")
        with pytest.raises(EOFError):
            reader.read_bit()

    def test_decoder_roundtrip(self):
        frequencies = {i: 50 - i for i in range(20)}
        lengths = huffman.code_lengths(frequencies)
        codes = huffman.canonical_codes(lengths)
        writer = huffman.BitWriter()
        symbols = [3, 7, 1, 19, 0, 3]
        for symbol in symbols:
            writer.write(*codes[symbol])
        reader = huffman.BitReader(writer.getvalue())
        decoder = huffman.Decoder(lengths)
        assert [decoder.decode(reader) for _ in symbols] == symbols

    def test_serialize_lengths_roundtrip(self):
        lengths = {0: 3, 5: 2, 7: 3}
        header = huffman.serialize_lengths(lengths, 10)
        assert huffman.deserialize_lengths(header) == lengths

    def test_serialize_rejects_outside_alphabet(self):
        with pytest.raises(ValueError):
            huffman.serialize_lengths({11: 2}, 10)


class TestDeflate:
    @pytest.mark.parametrize(
        "data",
        [
            b"",
            b"a",
            b"aaaaaaaaaaaaaaaaaaaaaaaa",
            b"the quick brown fox jumps over the lazy dog " * 30,
            bytes(range(256)),
        ],
    )
    def test_roundtrip(self, data):
        result = deflate.compress(data, level=9)
        out, _ = deflate.decompress(result.payload)
        assert out == data

    def test_text_compresses_well(self):
        data = b"hello world, this is quite repetitive text. " * 100
        result = deflate.compress(data, level=9)
        assert result.ratio > 5.0

    def test_random_data_does_not_compress(self):
        rng = np.random.default_rng(0)
        data = bytes(rng.integers(0, 256, size=4096, dtype=np.uint8))
        result = deflate.compress(data, level=9)
        assert result.ratio < 1.1

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            deflate.decompress(b"NOPE" + b"\x00" * 600)

    def test_work_units_present(self):
        result = deflate.compress(b"abc" * 100, level=9)
        assert result.work.get("lz_byte") == 300.0
        assert result.work.get("huffman_symbol") > 0

    def test_level_changes_effort(self):
        data = (b"abcdefgh" * 50 + b"zyxw" * 25) * 8
        fast = deflate.compress(data, level=1)
        best = deflate.compress(data, level=9)
        assert best.work.get("lz_match_search") >= fast.work.get("lz_match_search")
        assert best.compressed_size <= fast.compressed_size * 1.05

    @given(st.binary(min_size=0, max_size=600))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, data):
        result = deflate.compress(data, level=6)
        out, _ = deflate.decompress(result.payload)
        assert out == data
