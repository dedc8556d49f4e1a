"""Canonical Huffman coding (the back half of DEFLATE).

Builds length-limited canonical codes from symbol frequencies, serializes
the code-length table in the header, and encodes/decodes bitstreams.  The
decoder walks a flat (code -> symbol) table built from the same canonical
lengths, so the header fully determines the code.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

MAX_CODE_LENGTH = 15


def code_lengths(frequencies: Dict[int, int]) -> Dict[int, int]:
    """Huffman code lengths per symbol (package-merge-free simple build).

    Falls back to flattening when the tree would exceed MAX_CODE_LENGTH
    (rare for our alphabets).
    """
    symbols = [s for s, f in frequencies.items() if f > 0]
    if not symbols:
        return {}
    if len(symbols) == 1:
        return {symbols[0]: 1}
    heap: List[Tuple[int, int, Tuple[int, ...]]] = []
    for index, symbol in enumerate(symbols):
        heapq.heappush(heap, (frequencies[symbol], index, (symbol,)))
    depths: Dict[int, int] = {s: 0 for s in symbols}
    counter = len(symbols)
    while len(heap) > 1:
        fa, _, group_a = heapq.heappop(heap)
        fb, _, group_b = heapq.heappop(heap)
        for symbol in group_a + group_b:
            depths[symbol] += 1
        counter += 1
        heapq.heappush(heap, (fa + fb, counter, group_a + group_b))
    longest = max(depths.values())
    if longest > MAX_CODE_LENGTH:
        # crude length limiting: clamp and re-normalize via Kraft sum
        depths = _limit_lengths(depths, MAX_CODE_LENGTH)
    return depths


def _limit_lengths(depths: Dict[int, int], limit: int) -> Dict[int, int]:
    clamped = {s: min(d, limit) for s, d in depths.items()}
    # Repair the Kraft inequality by lengthening the shortest codes.
    def kraft(lengths: Dict[int, int]) -> float:
        return sum(2.0 ** -d for d in lengths.values())

    symbols_by_length = sorted(clamped, key=lambda s: clamped[s])
    while kraft(clamped) > 1.0:
        for symbol in symbols_by_length:
            if clamped[symbol] < limit:
                clamped[symbol] += 1
                break
        else:
            raise ValueError("cannot satisfy Kraft inequality")
        symbols_by_length = sorted(clamped, key=lambda s: clamped[s])
    return clamped


def canonical_codes(lengths: Dict[int, int]) -> Dict[int, Tuple[int, int]]:
    """symbol -> (code, length), assigned canonically."""
    ordered = sorted(lengths.items(), key=lambda item: (item[1], item[0]))
    codes: Dict[int, Tuple[int, int]] = {}
    code = 0
    previous_length = 0
    for symbol, length in ordered:
        code <<= length - previous_length
        codes[symbol] = (code, length)
        code += 1
        previous_length = length
    return codes


class BitWriter:
    """MSB-first bit packer.

    Whole bytes go straight to the output; the fewer than 8 bits still
    pending live in one int, so a write costs a shift, an or and at most
    one ``to_bytes`` instead of a loop over its bits.
    """

    def __init__(self):
        self._bytes = bytearray()
        self._pending = 0  # value of the pending bits
        self._pending_bits = 0  # how many (always < 8)

    def write(self, code: int, length: int) -> None:
        """Append the low ``length`` bits of ``code``, most significant first."""
        if length <= 0:
            return
        pending = (self._pending << length) | (code & ((1 << length) - 1))
        bits = self._pending_bits + length
        if bits >= 8:
            rest = bits & 7
            self._bytes += (pending >> rest).to_bytes(bits >> 3, "big")
            pending &= (1 << rest) - 1
            bits = rest
        self._pending = pending
        self._pending_bits = bits

    def getvalue(self) -> bytes:
        if not self._pending_bits:
            return bytes(self._bytes)
        # The last byte is zero-padded on the right.
        tail = self._pending << (8 - self._pending_bits)
        return bytes(self._bytes) + bytes((tail,))

    @property
    def bit_length(self) -> int:
        return len(self._bytes) * 8 + self._pending_bits


class BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._position = 0

    def read_bit(self) -> int:
        byte_index, bit_index = divmod(self._position, 8)
        if byte_index >= len(self._data):
            raise EOFError("bitstream exhausted")
        self._position += 1
        return (self._data[byte_index] >> (7 - bit_index)) & 1

    def read_bits(self, count: int) -> int:
        value = 0
        for _ in range(count):
            value = (value << 1) | self.read_bit()
        return value


class Decoder:
    """Canonical-code decoder using a (length, code) -> symbol map."""

    def __init__(self, lengths: Dict[int, int]):
        self._table: Dict[Tuple[int, int], int] = {}
        for symbol, (code, length) in canonical_codes(lengths).items():
            self._table[(length, code)] = symbol
        self._max_length = max(lengths.values()) if lengths else 0

    def decode(self, reader: BitReader) -> int:
        code = 0
        for length in range(1, self._max_length + 1):
            code = (code << 1) | reader.read_bit()
            symbol = self._table.get((length, code))
            if symbol is not None:
                return symbol
        raise ValueError("invalid Huffman code in stream")


def serialize_lengths(lengths: Dict[int, int], alphabet_size: int) -> bytes:
    """Fixed-size header: one length byte per alphabet symbol."""
    out = bytearray(alphabet_size)
    for symbol, length in lengths.items():
        if symbol >= alphabet_size:
            raise ValueError(f"symbol {symbol} outside alphabet {alphabet_size}")
        out[symbol] = length
    return bytes(out)


def deserialize_lengths(header: bytes) -> Dict[int, int]:
    return {symbol: length for symbol, length in enumerate(header) if length > 0}
