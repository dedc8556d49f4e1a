"""LZ77 sliding-window match finder (the front half of DEFLATE).

Hash-chain match search in the zlib style: a 3-byte rolling hash indexes
chains of previous positions; higher compression levels probe chains
deeper.  Emits a token stream of literals and (length, distance) copies
and counts the work units that dominate compression cost — bytes consumed
and chain probes performed.  Every position's hash key is computed in one
numpy pass up front; the chain walk itself is the per-position loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from ...core.work import WorkUnits

WINDOW_SIZE = 32 * 1024
MIN_MATCH = 3
MAX_MATCH = 258

# zlib-style level -> max chain probes per position.
LEVEL_MAX_CHAIN = {1: 4, 3: 16, 6: 32, 9: 128}


@dataclass(frozen=True)
class Literal:
    byte: int


@dataclass(frozen=True)
class Match:
    length: int
    distance: int


Token = Union[Literal, Match]

# Literals are immutable values: one shared instance per byte.
_LITERALS = [Literal(byte) for byte in range(256)]


@dataclass
class Lz77Result:
    tokens: List[Token]
    input_bytes: int
    chain_probes: int

    def work_units(self) -> WorkUnits:
        return WorkUnits(
            {
                "lz_byte": float(self.input_bytes),
                "lz_match_search": float(self.chain_probes),
            }
        )


def compress(data: bytes, level: int = 9) -> Lz77Result:
    """Tokenize ``data``; higher ``level`` searches harder for matches."""
    if level not in LEVEL_MAX_CHAIN:
        raise ValueError(f"level must be one of {sorted(LEVEL_MAX_CHAIN)}")
    max_chain = LEVEL_MAX_CHAIN[level]
    n = len(data)
    tokens: List[Token] = []
    head: dict = {}
    prev: List[Optional[int]] = [None] * n
    probes = 0
    pos = 0
    last = n - MIN_MATCH  # the last position with a whole 3-byte key
    if last >= 0:
        window = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
        keys = ((window[:-2] << 10) ^ (window[1:-1] << 5) ^ window[2:]).tolist()
    while pos < n:
        best_length = 0
        best_distance = 0
        if pos <= last:
            key = keys[pos]
            first = candidate = head.get(key)
            if candidate is not None:
                limit = min(MAX_MATCH, n - pos)
                chain = 0
                while candidate is not None and chain < max_chain:
                    distance = pos - candidate
                    if distance > WINDOW_SIZE:
                        break
                    probes += 1
                    chain += 1
                    # zlib's check: a candidate that differs at
                    # ``best_length`` cannot be longer than the best match
                    # so far, so skip its scan (it still counts as a probe).
                    if (best_length < limit
                            and data[candidate + best_length] == data[pos + best_length]):
                        length = 0
                        while (length < limit
                               and data[candidate + length] == data[pos + length]):
                            length += 1
                        if length > best_length:
                            best_length = length
                            best_distance = distance
                            if length >= MAX_MATCH:
                                break
                    candidate = prev[candidate]
            # insert current position into the chain
            prev[pos] = first
            head[key] = pos
        if best_length >= MIN_MATCH:
            tokens.append(Match(best_length, best_distance))
            # insert skipped positions so later matches can reference them
            end = pos + best_length
            for p in range(pos + 1, min(end, last + 1)):
                key = keys[p]
                prev[p] = head.get(key)
                head[key] = p
            pos = end
        else:
            tokens.append(_LITERALS[data[pos]])
            pos += 1
    return Lz77Result(tokens=tokens, input_bytes=n, chain_probes=probes)


def decompress(tokens: List[Token]) -> bytes:
    """Invert the token stream back to the original bytes."""
    out = bytearray()
    for token in tokens:
        if isinstance(token, Literal):
            out.append(token.byte)
        else:
            if token.distance <= 0 or token.distance > len(out):
                raise ValueError(f"bad match distance {token.distance}")
            start = len(out) - token.distance
            for i in range(token.length):
                out.append(out[start + i])
    return bytes(out)
