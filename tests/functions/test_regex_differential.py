"""Differential testing: the DFA engine against an independent oracle.

Two oracles: (1) Python's stdlib `re` for the pattern subset both share,
on random patterns and payloads; (2) a tiny backtracking matcher written
here from the same AST, structurally unlike the NFA/DFA pipeline.  Any
divergence is a real engine bug.
"""

import re as stdlib_re

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions.regex.engine import MultiPatternMatcher
from repro.functions.regex.parser import parse
from repro.functions.regex.parser import Alternate, Concat, Literal, Repeat


# -- oracle 2: direct backtracking over the AST -----------------------------

def _match_here(node, payload, position):
    """Yield every end position of a match of ``node`` at ``position``."""
    if isinstance(node, Literal):
        if position < len(payload) and payload[position] in node.bytes_allowed:
            yield position + 1
        return
    if isinstance(node, Concat):
        def rec(parts, at):
            if not parts:
                yield at
                return
            for middle in _match_here(parts[0], payload, at):
                yield from rec(parts[1:], middle)

        yield from rec(list(node.parts), position)
        return
    if isinstance(node, Alternate):
        for option in node.options:
            yield from _match_here(option, payload, position)
        return
    if isinstance(node, Repeat):
        maximum = node.maximum if node.maximum is not None else len(payload) + 1

        def rec(count, at):
            if count >= node.minimum:
                yield at
            if count < maximum:
                for nxt in _match_here(node.node, payload, at):
                    if nxt > at or count < node.minimum:
                        yield from rec(count + 1, nxt)

        yield from rec(0, position)
        return
    raise TypeError(node)


def oracle_match_ends(pattern, payload):
    """Distinct end offsets of *non-empty* matches (search mode).

    The engine, like Hyperscan, never reports zero-length matches — a
    nullable pattern such as ``a*`` "matching" at every offset is useless
    for IDS semantics — so the oracle mirrors that.
    """
    ast = parse(pattern)
    ends = set()
    for start in range(len(payload) + 1):
        for end in _match_here(ast, payload, start):
            if end > start:
                ends.add(end)
    return sorted(ends)


# -- random pattern generation ------------------------------------------------

ATOMS = st.sampled_from(
    ["a", "b", "c", "0", "[ab]", "[a-c]", "[0-9]", "\\x61"]
)
QUANTS = st.sampled_from(["", "*", "+", "?", "{2}", "{1,3}"])


NON_NULLABLE_QUANTS = ("", "+", "{2}", "{1,3}")


@st.composite
def random_pattern(draw):
    """Random patterns that cannot match the empty string (the engine,
    like Hyperscan, rejects nullable patterns)."""
    n = draw(st.integers(min_value=1, max_value=4))
    pieces = []
    anchor = draw(st.integers(0, n - 1))  # one mandatory atom per branch
    for index in range(n):
        atom = draw(ATOMS)
        quant = (
            draw(st.sampled_from(NON_NULLABLE_QUANTS))
            if index == anchor
            else draw(QUANTS)
        )
        pieces.append(atom + quant)
    pattern = "".join(pieces)
    if draw(st.booleans()):
        other = "".join(draw(ATOMS) for _ in range(draw(st.integers(1, 3))))
        pattern = f"{pattern}|{other}"
    return pattern


PAYLOADS = st.binary(max_size=24).map(
    lambda raw: bytes(b % 4 + ord("a") if b % 8 < 6 else b % 10 + ord("0")
                      for b in raw)
)


class TestAgainstBacktrackingOracle:
    @given(random_pattern(), PAYLOADS)
    @settings(max_examples=150, deadline=None)
    def test_same_match_ends(self, pattern, payload):
        engine = MultiPatternMatcher([pattern])
        matches, _ = engine.scan(payload)
        engine_ends = sorted({end for _, end in matches})
        assert engine_ends == oracle_match_ends(pattern, payload)


class TestAgainstStdlibRe:
    @given(random_pattern(), PAYLOADS)
    @settings(max_examples=150, deadline=None)
    def test_same_boolean_verdict(self, pattern, payload):
        engine = MultiPatternMatcher([pattern])
        compiled = stdlib_re.compile(pattern.encode())
        # non-empty matches only (Hyperscan semantics, see oracle note)
        stdlib_found = any(
            m.end() > m.start() for m in compiled.finditer(payload)
        )
        assert bool(engine.scan(payload)[0]) == stdlib_found

    @given(PAYLOADS)
    @settings(max_examples=60, deadline=None)
    def test_multi_pattern_union_equals_individual(self, payload):
        """Scanning N patterns at once = union of scanning each alone."""
        patterns = ["ab", "[0-9]{2}", "c+a"]
        combined = MultiPatternMatcher(patterns)
        together, _ = combined.scan(payload)
        separately = []
        for index, pattern in enumerate(patterns):
            single = MultiPatternMatcher([pattern])
            found, _ = single.scan(payload)
            separately.extend((index, end) for _, end in found)
        assert sorted(together) == sorted(separately)
