"""LZ77 sliding-window match finder (the front half of DEFLATE).

Hash-chain match search in the zlib style: a 3-byte rolling hash indexes
chains of previous positions; higher compression levels probe chains
deeper.  Emits a token stream of literals and (length, distance) copies
and counts the work units that dominate compression cost — bytes consumed
and chain probes performed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Union

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


def _hash3(data: bytes, pos: int) -> int:
    return (data[pos] << 10) ^ (data[pos + 1] << 5) ^ data[pos + 2]


def compress(data: bytes, level: int = 9) -> Lz77Result:
    """Tokenize ``data``; higher ``level`` searches harder for matches."""
    if level not in LEVEL_MAX_CHAIN:
        raise ValueError(f"level must be one of {sorted(LEVEL_MAX_CHAIN)}")
    max_chain = LEVEL_MAX_CHAIN[level]
    tokens: List[Token] = []
    head: dict = {}
    prev: dict = {}
    probes = 0
    pos = 0
    n = len(data)
    while pos < n:
        best_length = 0
        best_distance = 0
        if pos + MIN_MATCH <= n:
            key = _hash3(data, pos)
            candidate = head.get(key)
            chain = 0
            while candidate is not None and chain < max_chain:
                distance = pos - candidate
                if distance > WINDOW_SIZE:
                    break
                probes += 1
                chain += 1
                length = _match_length(data, candidate, pos, n)
                if length > best_length:
                    best_length = length
                    best_distance = distance
                    if length >= MAX_MATCH:
                        break
                candidate = prev.get(candidate)
            # insert current position into the chain
            prev[pos] = head.get(key)
            head[key] = pos
        if best_length >= MIN_MATCH:
            tokens.append(Match(best_length, best_distance))
            # insert skipped positions so later matches can reference them
            end = pos + best_length
            insert_end = min(end, n - MIN_MATCH + 1)
            for p in range(pos + 1, insert_end):
                key = _hash3(data, p)
                prev[p] = head.get(key)
                head[key] = p
            pos = end
        else:
            tokens.append(Literal(data[pos]))
            pos += 1
    return Lz77Result(tokens=tokens, input_bytes=n, chain_probes=probes)


def _match_length(data: bytes, candidate: int, pos: int, n: int) -> int:
    limit = min(MAX_MATCH, n - pos)
    length = 0
    while length < limit and data[candidate + length] == data[pos + length]:
        length += 1
    return length


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
