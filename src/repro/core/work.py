"""Work-unit accounting.

Functions in this library execute for real (a DFA actually scans packet
payloads, DEFLATE actually emits Huffman codes).  While doing so they count
*work units* — architecture-neutral operation tallies such as "bytes
scanned by the DFA" or "modular multiplies".  A hardware platform model
then prices each unit kind in cycles; that is where Xeon-vs-A72 and
ISA-extension differences live (see ``repro/calibration.py``).
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping


class WorkUnits:
    """A tally of operation counts by kind (a thin typed Counter)."""

    __slots__ = ("_counts",)

    def __init__(self, counts: Mapping[str, float] = ()):  # type: ignore[assignment]
        self._counts: Dict[str, float] = dict(counts) if counts else {}
        for kind, count in self._counts.items():
            if count < 0:
                raise ValueError(f"negative work count for {kind!r}: {count}")

    def add(self, kind: str, count: float = 1.0) -> "WorkUnits":
        if count < 0:
            raise ValueError(f"negative work count for {kind!r}: {count}")
        self._counts[kind] = self._counts.get(kind, 0.0) + count
        return self

    def merge(self, other: "WorkUnits") -> "WorkUnits":
        for kind, count in other.items():
            self.add(kind, count)
        return self

    def get(self, kind: str) -> float:
        return self._counts.get(kind, 0.0)

    def items(self) -> Iterator:
        return iter(self._counts.items())

    def scaled(self, factor: float) -> "WorkUnits":
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return WorkUnits({kind: count * factor for kind, count in self._counts.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkUnits):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counts.items()))
        return f"WorkUnits({inner})"
