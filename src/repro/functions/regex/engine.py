"""Multi-pattern matcher with work-unit accounting.

`MultiPatternMatcher` is the software analogue of Hyperscan on the host
and of the RXP rule engine on the SNIC: compile a rule set once, then scan
payloads and report (pattern_id, end_offset) matches.  Every scan returns
a `ScanStats` used for work-unit pricing: bytes scanned, visits to deep
(non-root) automaton states (a proxy for verification effort — dense rule
sets that keep the automaton away from the root cost real engines more),
and reported matches.

Semantics note: like Hyperscan, the engine reports only *non-empty*
matches — a nullable pattern (``a*``) never fires on the empty string.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from ...core.work import WorkUnits
from .automata import Dfa, Nfa, determinize


@lru_cache(maxsize=None)
def _compile_patterns(patterns: Tuple[str, ...], max_states: int) -> Dfa:
    """Compile a pattern set once per process.

    Subset construction is by far the most expensive fixture build (the
    dense rule sets take seconds), and independent consumers compile the
    same sets — the IDS and the REM offload both use the named rule sets.
    The DFA is immutable after construction, so sharing one instance
    across matchers is safe.
    """
    nfa = Nfa()
    for pattern_id, pattern in enumerate(patterns):
        nfa.add_pattern(pattern, pattern_id)
    return determinize(nfa, max_states=max_states)


@dataclass
class ScanStats:
    bytes_scanned: int
    deep_visits: int
    matches: int

    def work_units(self) -> WorkUnits:
        return WorkUnits(
            {
                "dfa_byte": float(self.bytes_scanned),
                "dfa_deep_byte": float(self.deep_visits),
                "regex_report": float(self.matches),
            }
        )


class MultiPatternMatcher:
    """Compiles many patterns into one DFA and scans payloads."""

    def __init__(self, patterns: Sequence[str], max_states: int = 20000):
        if not patterns:
            raise ValueError("need at least one pattern")
        self.patterns = list(patterns)
        self.dfa: Dfa = _compile_patterns(tuple(self.patterns), max_states)

    def scan(self, payload: bytes) -> Tuple[List[Tuple[int, int]], ScanStats]:
        """Scan ``payload``; return (matches, stats).

        Matches are (pattern_id, end_offset) with end_offset pointing one
        past the last matched byte.  Each (pattern, end) pair reports once.
        """
        transitions = self.dfa.transitions
        accepts = self.dfa.accepts
        depth = self.dfa.depth_class
        state = self.dfa.start
        matches: List[Tuple[int, int]] = []
        deep_visits = 0
        for offset, byte in enumerate(payload):
            state = transitions[state * 256 + byte]
            state_depth = depth[state]
            if state_depth:
                # Depth-1 excursions are ordinary scanning; only states two
                # or more transitions from the root count as verification
                # work (a literal prefix has matched and the engine is
                # confirming the rest of the pattern).
                if state_depth >= 2:
                    deep_visits += 1
                found = accepts[state]
                if found:
                    end = offset + 1
                    for pattern_id in found:
                        matches.append((pattern_id, end))
        return matches, ScanStats(
            bytes_scanned=len(payload),
            deep_visits=deep_visits,
            matches=len(matches),
        )
