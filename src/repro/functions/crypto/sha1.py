"""SHA-1 (FIPS 180-4), pure Python reference with work accounting.

One ``sha1_block`` work unit per 64-byte compression round; verified
against known-answer vectors in the test suite.
"""

from __future__ import annotations

import struct
from typing import Tuple

from ...core.work import WorkUnits

BLOCK_BYTES = 64


def _rotl(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF


def digest(message: bytes) -> Tuple[bytes, WorkUnits]:
    """20-byte SHA-1 digest plus per-block work units."""
    h0, h1, h2, h3, h4 = (
        0x67452301,
        0xEFCDAB89,
        0x98BADCFE,
        0x10325476,
        0xC3D2E1F0,
    )
    bit_length = len(message) * 8
    padded = message + b"\x80"
    padded += b"\x00" * ((56 - len(padded) % 64) % 64)
    padded += struct.pack(">Q", bit_length)

    blocks = 0
    for offset in range(0, len(padded), BLOCK_BYTES):
        blocks += 1
        w = list(struct.unpack(">16I", padded[offset : offset + BLOCK_BYTES]))
        for t in range(16, 80):
            w.append(_rotl(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
        a, b, c, d, e = h0, h1, h2, h3, h4
        for t in range(80):
            if t < 20:
                f = (b & c) | ((~b) & d)
                k = 0x5A827999
            elif t < 40:
                f = b ^ c ^ d
                k = 0x6ED9EBA1
            elif t < 60:
                f = (b & c) | (b & d) | (c & d)
                k = 0x8F1BBCDC
            else:
                f = b ^ c ^ d
                k = 0xCA62C1D6
            temp = (_rotl(a, 5) + f + e + k + w[t]) & 0xFFFFFFFF
            e, d, c, b, a = d, c, _rotl(b, 30), a, temp
        h0 = (h0 + a) & 0xFFFFFFFF
        h1 = (h1 + b) & 0xFFFFFFFF
        h2 = (h2 + c) & 0xFFFFFFFF
        h3 = (h3 + d) & 0xFFFFFFFF
        h4 = (h4 + e) & 0xFFFFFFFF

    out = struct.pack(">5I", h0, h1, h2, h3, h4)
    return out, WorkUnits({"sha1_block": float(blocks)})
