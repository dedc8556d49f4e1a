"""Open vSwitch-style virtual switch (the OvS benchmark, §3.4).

The paper offloads the OvS *data plane* to the embedded switch in
ConnectX-6/BlueField-2 and leaves only the control plane on the CPU.  We
reproduce that split:

* :class:`FlowTable` — the control-plane classifier: an exact-match
  megaflow cache in front of prioritized wildcard rules; cache misses
  trigger an upcall (rule lookup + megaflow install), which is the only
  CPU-visible per-packet event once the data plane is offloaded;
* :class:`ESwitchDatapath` — the bump-in-the-wire model: packets whose
  megaflow is installed in hardware forward at line rate with no CPU
  work at all.

Work units: ``flow_lookup`` per cache hit handled in software,
``flow_upcall`` per miss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.work import WorkUnits

FlowKey = Tuple[int, int, int, int, int]  # proto, src_ip, dst_ip, src_port, dst_port


@dataclass(frozen=True)
class WildcardRule:
    priority: int
    # None fields are wildcards.
    proto: Optional[int] = None
    src_ip: Optional[int] = None
    dst_ip: Optional[int] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    action: str = "forward"
    out_port: int = 0

    def matches(self, key: FlowKey) -> bool:
        proto, src_ip, dst_ip, src_port, dst_port = key
        checks = (
            (self.proto, proto),
            (self.src_ip, src_ip),
            (self.dst_ip, dst_ip),
            (self.src_port, src_port),
            (self.dst_port, dst_port),
        )
        return all(want is None or want == got for want, got in checks)


@dataclass
class MegaflowEntry:
    action: str
    out_port: int
    hits: int = 0
    in_hardware: bool = False


@dataclass
class SwitchStats:
    packets: int = 0
    cache_hits: int = 0
    upcalls: int = 0
    drops: int = 0
    hardware_forwards: int = 0


class FlowTable:
    """Control-plane classifier with a megaflow cache."""

    def __init__(self, cache_capacity: int = 200_000):
        self.rules: List[WildcardRule] = []
        self.cache: Dict[FlowKey, MegaflowEntry] = {}
        self.cache_capacity = cache_capacity
        self.stats = SwitchStats()

    def add_rule(self, rule: WildcardRule) -> None:
        self.rules.append(rule)
        self.rules.sort(key=lambda r: -r.priority)

    def classify(self, key: FlowKey) -> Tuple[Optional[MegaflowEntry], WorkUnits]:
        """Software slow/fast path for one packet."""
        self.stats.packets += 1
        entry = self.cache.get(key)
        if entry is not None:
            self.stats.cache_hits += 1
            entry.hits += 1
            return entry, WorkUnits({"flow_lookup": 1.0})
        # Miss: upcall walks the wildcard rules and installs a megaflow.
        self.stats.upcalls += 1
        work = WorkUnits({"flow_upcall": 1.0})
        for rule in self.rules:
            if rule.matches(key):
                entry = MegaflowEntry(rule.action, rule.out_port)
                break
        else:
            entry = MegaflowEntry("drop", -1)
        if len(self.cache) >= self.cache_capacity:
            self.cache.pop(next(iter(self.cache)))
        self.cache[key] = entry
        if entry.action == "drop":
            self.stats.drops += 1
            return None, work
        return entry, work


class ESwitchDatapath:
    """Hardware-offloaded data plane: megaflows pushed into the eSwitch
    forward without CPU involvement (§2.2 'bump-in-the-wire')."""

    def __init__(self, flow_table: FlowTable, eswitch_gbps: float = 100.0):
        self.flow_table = flow_table
        self.eswitch_gbps = eswitch_gbps
        self.offloaded: Dict[FlowKey, MegaflowEntry] = {}

    def process(self, key: FlowKey) -> Tuple[str, WorkUnits]:
        """Returns (path_taken, cpu_work) for one packet."""
        entry = self.offloaded.get(key)
        if entry is not None:
            entry.hits += 1
            self.flow_table.stats.packets += 1
            self.flow_table.stats.hardware_forwards += 1
            return "hardware", WorkUnits()
        entry, work = self.flow_table.classify(key)
        if entry is not None:
            entry.in_hardware = True
            self.offloaded[key] = entry
        return "software", work
