"""Cluster topology: racks of nodes under a two-tier leaf-spine fabric.

A :class:`TopologySpec` is a frozen, picklable description — rack count,
nodes per rack, spine count, per-tier link rates, queue/AQM settings and
the node profile every node runs.  The DES realization (ports, queues,
marking) lives in :mod:`repro.cluster.fabric`; this module only answers
structural questions: who is where, what is everyone's address, and what
canonical id names this topology in run manifests.

The degenerate spec — one rack, one node, no fabric — is the seed
repo's world: a single server+SNIC pair.  Run manifests of the
single-node verbs record its id.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from ..netstack.packet import ip

# Address plan: 10.<rack>.<slot>.10 — one /24 per rack, mirroring the
# one-subnet-per-rack convention of real leaf-spine deployments.
_NODE_HOST_OCTET = 10


@dataclass(frozen=True)
class TopologySpec:
    """Shape and dimensioning of one cluster."""

    racks: int = 2
    nodes_per_rack: int = 4
    spines: int = 2
    node_profile: str = "host+bf2"
    # Link rates per tier: node<->leaf access, leaf<->spine uplinks.
    access_gbps: float = 25.0
    uplink_gbps: float = 100.0
    # One-way propagation per hop (intra-building optics + switch pipeline).
    hop_propagation_s: float = 1e-6
    # Per-port buffering and RED/ECN thresholds, in bytes.  The defaults
    # are shallow-buffer leaf-switch numbers scaled to the access rate:
    # marking starts at ~20 MTUs, tail drop near ~100 MTUs.
    buffer_bytes: int = 150_000
    red_min_bytes: int = 30_000
    red_max_bytes: int = 90_000
    red_max_p: float = 0.6
    ecn: bool = True
    # No fabric at all (only meaningful for single-node clusters).
    fabric: bool = True

    def __post_init__(self) -> None:
        if self.racks < 1 or self.nodes_per_rack < 1:
            raise ValueError("need at least one rack and one node per rack")
        if self.spines < 1:
            raise ValueError("need at least one spine")
        if not 0 <= self.red_min_bytes <= self.red_max_bytes <= self.buffer_bytes:
            raise ValueError("need red_min <= red_max <= buffer_bytes")
        if self.racks > 200 or self.nodes_per_rack > 200:
            raise ValueError("topology exceeds the address plan (200 racks "
                             "of 200 nodes)")
        if not self.fabric and self.n_nodes > 1:
            raise ValueError("a fabric-less topology must be single-node")
        from ..calibration import NODE_PROFILES

        if self.node_profile not in NODE_PROFILES:
            raise ValueError(
                f"unknown node profile {self.node_profile!r} "
                f"(known: {sorted(NODE_PROFILES)})")

    # -- structure ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return self.racks * self.nodes_per_rack

    @property
    def is_single_node(self) -> bool:
        return self.n_nodes == 1 and not self.fabric

    def node_ids(self) -> Tuple[int, ...]:
        return tuple(range(self.n_nodes))

    def rack_of(self, node_id: int) -> int:
        self._check(node_id)
        return node_id // self.nodes_per_rack

    def slot_of(self, node_id: int) -> int:
        self._check(node_id)
        return node_id % self.nodes_per_rack

    def address_of(self, node_id: int) -> int:
        """The node's fabric address (10.<rack>.<slot>.10)."""
        return ip(10, self.rack_of(node_id), self.slot_of(node_id),
                  _NODE_HOST_OCTET)

    def _check(self, node_id: int) -> None:
        if not 0 <= node_id < self.n_nodes:
            raise ValueError(f"node {node_id} outside topology "
                             f"({self.n_nodes} nodes)")

    # -- identity ----------------------------------------------------------

    def topology_id(self) -> str:
        """Canonical id recorded in run-farm manifest headers.

        ``--resume`` compares this string; two invocations that resolve
        to different ids must not share a manifest.
        """
        if self.is_single_node:
            return f"single:{self.node_profile}"
        aqm = "ecn" if self.ecn else "droptail"
        return (f"leafspine:r{self.racks}xn{self.nodes_per_rack}"
                f":s{self.spines}:{self.node_profile}:{aqm}")


def single_node_spec(node_profile: str = "host+bf2") -> TopologySpec:
    """The seed world: one node, no fabric (the N=1 reduction)."""
    return TopologySpec(racks=1, nodes_per_rack=1, spines=1,
                        node_profile=node_profile, fabric=False)
