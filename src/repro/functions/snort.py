"""Snort-style network intrusion detection (the Snort benchmark, §3.4).

A lightweight IDS in the architecture of Snort: rules pair a header
predicate (protocol / port constraints) with a content signature; packets
that satisfy a rule's header are scanned by the shared multi-pattern
engine, and matches produce alerts.  Work per packet: header evaluation
(``instr``), payload touch, and the regex engine's scan accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..core.work import WorkUnits
from .regex.engine import MultiPatternMatcher
from .regex.rulesets import RuleSet, load_ruleset


@dataclass(frozen=True)
class RuleHeader:
    protocol: str = "udp"  # "udp" | "tcp" | "any"
    dst_port: Optional[int] = None


@dataclass(frozen=True)
class Alert:
    rule_index: int
    pattern_id: int
    offset: int


@dataclass
class IdsStats:
    packets: int = 0
    scanned: int = 0
    alerts: int = 0
    header_rejected: int = 0


@dataclass
class PacketMeta:
    protocol: str
    dst_port: int
    payload: bytes = b""


class IntrusionDetector:
    """Compile a named rule set and inspect packets."""

    def __init__(self, ruleset: RuleSet, header: RuleHeader = RuleHeader()):
        self.ruleset = ruleset
        self.header = header
        self.matcher = MultiPatternMatcher(list(ruleset.patterns))
        self.stats = IdsStats()
        self.alerts: List[Alert] = []

    @classmethod
    def from_named_ruleset(cls, name: str) -> "IntrusionDetector":
        return cls(load_ruleset(name))

    def _header_matches(self, packet: PacketMeta) -> bool:
        if self.header.protocol != "any" and packet.protocol != self.header.protocol:
            return False
        if self.header.dst_port is not None and packet.dst_port != self.header.dst_port:
            return False
        return True

    def inspect(self, packet: PacketMeta) -> Tuple[List[Alert], WorkUnits]:
        """Inspect one packet; returns new alerts and work units."""
        self.stats.packets += 1
        work = WorkUnits({"instr": 40.0})  # header predicate + dispatch
        if not self._header_matches(packet):
            self.stats.header_rejected += 1
            return [], work
        self.stats.scanned += 1
        work.add("pkt_touch_byte", float(len(packet.payload)))
        matches, scan_stats = self.matcher.scan(packet.payload)
        work.merge(scan_stats.work_units())
        new_alerts = [
            Alert(rule_index=0, pattern_id=pattern_id, offset=end)
            for pattern_id, end in matches
        ]
        self.alerts.extend(new_alerts)
        self.stats.alerts += len(new_alerts)
        return new_alerts, work
