"""NFA construction and DFA subset conversion for multi-pattern matching.

The matcher compiles *many* patterns into one automaton whose accept
states carry pattern ids — the same architecture as Hyperscan and the
BlueField-2 RXP engine.  Matching runs the DFA over a payload in "search"
mode (an implicit ``.*`` prefix lets matches start anywhere) and reports
``(pattern_id, end_offset)`` pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from .parser import Alternate, Concat, Literal, Node, Repeat, parse

_MAX_COUNTED_EXPANSION = 64
_NO_ROW = (0,) * 256  # a discovered DFA state's row, until it is processed


@dataclass
class NfaState:
    transitions: List[Tuple[FrozenSet[int], int]] = field(default_factory=list)
    epsilon: List[int] = field(default_factory=list)
    accepts: Optional[int] = None  # pattern id


class Nfa:
    """Thompson NFA over byte alphabet with pattern-id accepts."""

    def __init__(self):
        self.states: List[NfaState] = []
        self.start = self.new_state()

    def new_state(self) -> int:
        self.states.append(NfaState())
        return len(self.states) - 1

    def add_pattern(self, pattern: str, pattern_id: int) -> None:
        from .parser import nullable

        ast = parse(pattern)
        if nullable(ast):
            # As in Hyperscan: a pattern matching the empty string would
            # "fire" at every offset, which is meaningless for scanning.
            raise ValueError(
                f"pattern {pattern!r} matches the empty string; anchor it "
                "with at least one mandatory atom"
            )
        entry, exit_ = self._build(ast)
        # Search semantics: the global start self-loops on any byte and
        # epsilon-enters every pattern's entry.
        self.states[self.start].epsilon.append(entry)
        self.states[exit_].accepts = pattern_id

    # -- Thompson construction -------------------------------------------

    def _build(self, node: Node) -> Tuple[int, int]:
        if isinstance(node, Literal):
            entry, exit_ = self.new_state(), self.new_state()
            self.states[entry].transitions.append((node.bytes_allowed, exit_))
            return entry, exit_
        if isinstance(node, Concat):
            entry, exit_ = self.new_state(), self.new_state()
            current = entry
            for part in node.parts:
                part_entry, part_exit = self._build(part)
                self.states[current].epsilon.append(part_entry)
                current = part_exit
            self.states[current].epsilon.append(exit_)
            return entry, exit_
        if isinstance(node, Alternate):
            entry, exit_ = self.new_state(), self.new_state()
            for option in node.options:
                option_entry, option_exit = self._build(option)
                self.states[entry].epsilon.append(option_entry)
                self.states[option_exit].epsilon.append(exit_)
            return entry, exit_
        if isinstance(node, Repeat):
            return self._build_repeat(node)
        raise TypeError(f"unknown AST node {node!r}")

    def _build_repeat(self, node: Repeat) -> Tuple[int, int]:
        if node.maximum is None:
            # min{0,1,n} then a Kleene tail
            entry, exit_ = self.new_state(), self.new_state()
            current = entry
            for _ in range(node.minimum):
                part_entry, part_exit = self._build(node.node)
                self.states[current].epsilon.append(part_entry)
                current = part_exit
            # Kleene star segment
            star_entry, star_exit = self.new_state(), self.new_state()
            inner_entry, inner_exit = self._build(node.node)
            self.states[star_entry].epsilon.extend([inner_entry, star_exit])
            self.states[inner_exit].epsilon.extend([inner_entry, star_exit])
            self.states[current].epsilon.append(star_entry)
            self.states[star_exit].epsilon.append(exit_)
            return entry, exit_
        total = node.maximum
        if total > _MAX_COUNTED_EXPANSION:
            raise ValueError(
                f"counted repeat {{{node.minimum},{node.maximum}}} too large to expand"
            )
        entry, exit_ = self.new_state(), self.new_state()
        current = entry
        optional_starts: List[int] = []
        for index in range(total):
            part_entry, part_exit = self._build(node.node)
            if index >= node.minimum:
                optional_starts.append(current)
            self.states[current].epsilon.append(part_entry)
            current = part_exit
        self.states[current].epsilon.append(exit_)
        for state in optional_starts:
            self.states[state].epsilon.append(exit_)
        return entry, exit_

    # -- epsilon closure ---------------------------------------------------

    def closure(self, states: Set[int]) -> FrozenSet[int]:
        stack = list(states)
        seen = set(states)
        while stack:
            state = stack.pop()
            for target in self.states[state].epsilon:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        return frozenset(seen)


@dataclass
class Dfa:
    """Dense-table DFA: transitions[state * 256 + byte] -> state.

    ``accepts[state]`` is a tuple of pattern ids reported when the state is
    entered.  ``depth_class[state]`` is 0 for the root scanning state and
    grows with automaton depth — the matcher uses it to count "deep state"
    visits, the work-unit proxy for verification effort.
    """

    transitions: List[int]
    accepts: List[Tuple[int, ...]]
    start: int
    depth_class: List[int]


def _byte_classes(nfa: Nfa) -> Tuple[List[int], int, Dict[FrozenSet[int], List[int]]]:
    """Partition the byte alphabet into classes no NFA transition splits.

    Two bytes in one class lie in exactly the same transition sets, so
    every subset of NFA states moves on them to the same targets.
    Returns each byte's class, the class count and, per transition set,
    the classes it holds.  Classes are numbered in first-byte order.
    """
    sets = {allowed for state in nfa.states for allowed, _ in state.transitions}
    signature: List[List[int]] = [[] for _ in range(256)]
    for set_index, allowed in enumerate(sets):
        for byte in allowed:
            signature[byte].append(set_index)
    number: Dict[Tuple[int, ...], int] = {}
    class_of = [number.setdefault(tuple(signature[byte]), len(number))
                for byte in range(256)]
    classes_in = {allowed: sorted({class_of[byte] for byte in allowed})
                  for allowed in sets}
    return class_of, len(number), classes_in


def determinize(nfa: Nfa, max_states: int = 20000) -> Dfa:
    """Subset construction with a search-mode self-looping start state."""
    # NFA subsets are int bitmasks: identical membership semantics to the
    # frozensets of the naive construction (mask identity == set
    # identity), but unions are word-parallel and closures memoizable.
    # Epsilon closures decompose over union — closure(S) is the union of
    # the members' single-state closures — so precompute those once.
    #
    # Moves are merged once per byte class, not once per byte.  Every
    # subset holds the start state, which loops on all 256 bytes, so the
    # per-byte construction visits bytes in order 0..255 and discovers a
    # new DFA state at the first byte that reaches it.  Visiting classes
    # in first-byte order discovers them in that same order, so state
    # numbering, depth classes and the whole table are unchanged.
    single_mask: List[int] = []
    for s in range(len(nfa.states)):
        mask = 0
        for member in nfa.closure({s}):
            mask |= 1 << member
        single_mask.append(mask)
    class_of, class_count, classes_in = _byte_classes(nfa)
    state_moves: List[List[Tuple[int, int]]] = []
    movers = 0  # the NFA states with any byte transition
    for s, st in enumerate(nfa.states):
        per: Dict[int, int] = {}
        for allowed, target in st.transitions:
            bit = 1 << target
            for byte_class in classes_in[allowed]:
                per[byte_class] = per.get(byte_class, 0) | bit
        state_moves.append(list(per.items()))
        if per:
            movers |= 1 << s
    spread = itemgetter(*class_of)  # class row -> 256-byte row

    start_bit = 1 << nfa.start
    start_set = single_mask[nfa.start]
    index_of: Dict[int, int] = {start_set: 0}
    order: List[int] = [start_set]
    transitions: List[int] = [0] * 256
    depth_class: List[int] = [0]
    index_of_targets: Dict[int, int] = {}  # targets mask -> DFA state

    work = [start_set]
    while work:
        current = work.pop()
        current_index = index_of[current]
        # keep scanning for later matches: the start state is in every target
        moves = [start_bit] * class_count
        remaining = current & movers
        while remaining:
            low = remaining & -remaining
            remaining ^= low
            for byte_class, bits in state_moves[low.bit_length() - 1]:
                moves[byte_class] |= bits
        row: List[int] = []
        for targets in moves:
            index = index_of_targets.get(targets)
            if index is None:
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
                        raise ValueError(
                            f"DFA exceeds {max_states} states; simplify the rule set"
                        )
                    index_of[closure] = index
                    order.append(closure)
                    transitions.extend(_NO_ROW)
                    depth_class.append(min(depth_class[current_index] + 1, 255))
                    work.append(closure)
                index_of_targets[targets] = index
            row.append(index)
        base = current_index * 256
        transitions[base:base + 256] = spread(row)

    accepts: List[Tuple[int, ...]] = []
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
    return Dfa(
        transitions=transitions,
        accepts=accepts,
        start=0,
        depth_class=depth_class,
    )
