"""DEFLATE-shaped compressor: LZ77 tokens entropy-coded with canonical
Huffman codes.

The container format is simplified relative to RFC 1951 (single block,
byte-aligned header carrying the two code-length tables) but the pipeline
— hash-chain LZ77 at a compression level, canonical Huffman over a
literal/length alphabet plus a distance alphabet — is the real algorithm,
and compress/decompress round-trips exactly.  Work units: ``lz_byte`` and
``lz_match_search`` from the match finder plus ``huffman_symbol`` per
emitted symbol.  :func:`measure` gives the same size and work without
writing the bits, for callers that price compression but never inflate.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ...core.work import WorkUnits
from . import huffman, lz77

# Literal/length alphabet: 0-255 literals, 256 = end-of-block,
# 257-284 length buckets (like DEFLATE's length codes).
END_OF_BLOCK = 256
LENGTH_BASE = [3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 24, 32, 48, 64, 96, 128, 192, 258]
LITLEN_ALPHABET = 257 + len(LENGTH_BASE)
# Distance buckets, powers of two up to the 32 KiB window.
DIST_BASE = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256,
             384, 512, 768, 1024, 1536, 2048, 3072, 4096, 6144, 8192, 12288,
             16384, 24576, 32768]
DIST_ALPHABET = len(DIST_BASE)

# Extra bits carried by each length / distance bucket.
_LENGTH_EXTRA_BITS = [max(0, (upper - base - 1).bit_length())
                      for base, upper in zip(LENGTH_BASE, LENGTH_BASE[1:] + [259])]
_DIST_EXTRA_BITS = [max(0, (upper - base - 1).bit_length())
                    for base, upper in zip(DIST_BASE, DIST_BASE[1:] + [32769])]

MAGIC = b"RPDF"
HEADER_BYTES = len(MAGIC) + struct.calcsize("<IB") + LITLEN_ALPHABET + DIST_ALPHABET


@dataclass
class CompressionResult:
    compressed_size: int
    original_size: int
    work: WorkUnits
    payload: Optional[bytes] = None  # None when only sized (:func:`measure`)

    @property
    def ratio(self) -> float:
        if self.compressed_size == 0:
            return float("inf")
        return self.original_size / self.compressed_size


def _length_bucket(length: int) -> Tuple[int, int, int]:
    """(symbol, extra_bits, extra_value) for a match length."""
    index = bisect_right(LENGTH_BASE, length) - 1
    if index < 0:
        raise ValueError(f"length {length} below minimum match")
    return 257 + index, _LENGTH_EXTRA_BITS[index], length - LENGTH_BASE[index]


def _distance_bucket(distance: int) -> Tuple[int, int, int]:
    index = bisect_right(DIST_BASE, distance) - 1
    if index < 0:
        raise ValueError(f"distance {distance} below 1")
    return index, _DIST_EXTRA_BITS[index], distance - DIST_BASE[index]


@dataclass
class _Coded:
    """One input's LZ77 tokens as Huffman symbols, with both codes built."""

    lz: lz77.Lz77Result
    litlen_symbols: List[Tuple[int, int, int]]  # (symbol, extra_bits, extra)
    dist_symbols: List[Tuple[int, int, int]]
    litlen_lengths: Dict[int, int]
    dist_lengths: Dict[int, int]

    def work(self) -> WorkUnits:
        emitted = len(self.litlen_symbols) + len(self.dist_symbols)
        return self.lz.work_units().add("huffman_symbol", float(emitted))


def _code(data: bytes, level: int) -> _Coded:
    lz = lz77.compress(data, level=level)
    litlen_symbols: List[Tuple[int, int, int]] = []
    dist_symbols: List[Tuple[int, int, int]] = []
    for token in lz.tokens:
        if isinstance(token, lz77.Literal):
            litlen_symbols.append((token.byte, 0, 0))
        else:
            litlen_symbols.append(_length_bucket(token.length))
            dist_symbols.append(_distance_bucket(token.distance))
    litlen_symbols.append((END_OF_BLOCK, 0, 0))
    # Counter keeps first-seen order, which code_lengths' tie-breaks read.
    litlen_freq = Counter(symbol for symbol, _, _ in litlen_symbols)
    dist_freq = Counter(symbol for symbol, _, _ in dist_symbols)
    return _Coded(lz, litlen_symbols, dist_symbols,
                  huffman.code_lengths(litlen_freq),
                  huffman.code_lengths(dist_freq))


def measure(data: bytes, level: int = 9) -> CompressionResult:
    """:func:`compress`'s size and work, without emitting the bitstream.

    Every symbol is written with its code length plus its extra bits, so
    the stream is that many bits, zero-padded to a byte.
    """
    coded = _code(data, level)
    litlen, dist = coded.litlen_lengths, coded.dist_lengths
    bits = sum(litlen[symbol] + extra_bits
               for symbol, extra_bits, _ in coded.litlen_symbols)
    bits += sum(dist[symbol] + extra_bits
                for symbol, extra_bits, _ in coded.dist_symbols)
    return CompressionResult(compressed_size=HEADER_BYTES + (bits + 7) // 8,
                             original_size=len(data), work=coded.work())


def compress(data: bytes, level: int = 9) -> CompressionResult:
    """Compress ``data``; returns payload + work-unit accounting."""
    coded = _code(data, level)
    litlen_codes = huffman.canonical_codes(coded.litlen_lengths)
    dist_codes = huffman.canonical_codes(coded.dist_lengths)
    writer = huffman.BitWriter()
    dist_iter = iter(coded.dist_symbols)
    for symbol, extra_bits, extra in coded.litlen_symbols:
        code, length = litlen_codes[symbol]
        writer.write(code, length)
        if extra_bits:
            writer.write(extra, extra_bits)
        if symbol >= 257:
            dist_symbol, dist_extra_bits, dist_extra = next(dist_iter)
            dcode, dlength = dist_codes[dist_symbol]
            writer.write(dcode, dlength)
            if dist_extra_bits:
                writer.write(dist_extra, dist_extra_bits)

    header = (
        MAGIC
        + struct.pack("<IB", len(data), level)
        + huffman.serialize_lengths(coded.litlen_lengths, LITLEN_ALPHABET)
        + huffman.serialize_lengths(coded.dist_lengths, DIST_ALPHABET)
    )
    payload = header + writer.getvalue()
    return CompressionResult(compressed_size=len(payload),
                             original_size=len(data), work=coded.work(),
                             payload=payload)


def decompress(payload: bytes) -> Tuple[bytes, WorkUnits]:
    """Invert :func:`compress`; returns (data, work units of inflation)."""
    if payload[:4] != MAGIC:
        raise ValueError("not a repro-deflate payload")
    original_size, _level = struct.unpack("<IB", payload[4:9])
    offset = 9
    litlen_lengths = huffman.deserialize_lengths(payload[offset:offset + LITLEN_ALPHABET])
    offset += LITLEN_ALPHABET
    dist_lengths = huffman.deserialize_lengths(payload[offset:offset + DIST_ALPHABET])
    offset += DIST_ALPHABET
    reader = huffman.BitReader(payload[offset:])
    litlen_decoder = huffman.Decoder(litlen_lengths)
    dist_decoder = huffman.Decoder(dist_lengths) if dist_lengths else None

    out = bytearray()
    symbols = 0
    while True:
        symbol = litlen_decoder.decode(reader)
        symbols += 1
        if symbol == END_OF_BLOCK:
            break
        if symbol < 256:
            out.append(symbol)
            continue
        index = symbol - 257
        base = LENGTH_BASE[index]
        next_base = LENGTH_BASE[index + 1] if index + 1 < len(LENGTH_BASE) else 259
        extra_bits = max(0, (next_base - base - 1).bit_length())
        length = base + (reader.read_bits(extra_bits) if extra_bits else 0)
        if dist_decoder is None:
            raise ValueError("match token but no distance table")
        dist_symbol = dist_decoder.decode(reader)
        symbols += 1
        dbase = DIST_BASE[dist_symbol]
        dnext = DIST_BASE[dist_symbol + 1] if dist_symbol + 1 < len(DIST_BASE) else 32769
        dextra_bits = max(0, (dnext - dbase - 1).bit_length())
        distance = dbase + (reader.read_bits(dextra_bits) if dextra_bits else 0)
        start = len(out) - distance
        if start < 0:
            raise ValueError("distance before stream start")
        for i in range(length):
            out.append(out[start + i])
    if len(out) != original_size:
        raise ValueError(f"size mismatch: header {original_size}, got {len(out)}")
    work = WorkUnits({"huffman_symbol": float(symbols), "mem_stream_byte": float(len(out))})
    return bytes(out), work
