"""Network address translation (RFC 1631 style; the NAT benchmark, §3.4).

A UDP-fronted translator: ingress packets have their destination rewritten
toward the private network; egress packets have their source rewritten to
the public address.  The paper runs tables of 10 K and 1 M entries — the
large table spills out of cache, which the work model expresses by
switching to the ``nat_lookup_cold`` unit above a size threshold (the
host's LLC holds ~400 K entries; the SNIC's, far fewer — both go to DRAM
at 1 M, but the SNIC pays more per miss, see calibration).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.work import WorkUnits

FiveTuple = Tuple[int, int, int, int, int]  # proto, src_ip, src_port, dst_ip, dst_port

# Above this entry count, lookups are priced as cache-cold.
CACHE_RESIDENT_ENTRIES = 100_000


@dataclass(frozen=True)
class Mapping:
    private_ip: int
    private_port: int


class NatTable:
    """Static translation table keyed by (public_ip, public_port)."""

    def __init__(self):
        self._entries: Dict[Tuple[int, int], Mapping] = {}
        self.translated = 0
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._entries)

    def install(self, public_ip: int, public_port: int,
                private_ip: int, private_port: int) -> None:
        self._entries[(public_ip, public_port)] = Mapping(private_ip, private_port)

    def _lookup_kind(self) -> str:
        if len(self._entries) > CACHE_RESIDENT_ENTRIES:
            return "nat_lookup_cold"
        return "nat_lookup"

    def translate_ingress(
        self, five_tuple: FiveTuple
    ) -> Tuple[Optional[FiveTuple], WorkUnits]:
        """Rewrite destination (public -> private); None = no mapping."""
        proto, src_ip, src_port, dst_ip, dst_port = five_tuple
        work = WorkUnits({self._lookup_kind(): 1.0})
        mapping = self._entries.get((dst_ip, dst_port))
        if mapping is None:
            self.dropped += 1
            return None, work
        work.add("nat_rewrite", 1.0)
        self.translated += 1
        return (proto, src_ip, src_port, mapping.private_ip, mapping.private_port), work


def build_random_table(entries: int, rng: np.random.Generator) -> NatTable:
    """A NAT table with ``entries`` random mappings (paper: 10 K and 1 M)."""
    table = NatTable()
    public_ips = rng.integers(0x0A000000, 0x0AFFFFFF, size=entries, dtype=np.int64)
    ports = rng.integers(1024, 65535, size=entries, dtype=np.int64)
    private_ips = rng.integers(0xC0A80000, 0xC0A8FFFF, size=entries, dtype=np.int64)
    for index in range(entries):
        table.install(
            int(public_ips[index]),
            int(ports[index]),
            int(private_ips[index]),
            int(ports[index]),
        )
    return table
