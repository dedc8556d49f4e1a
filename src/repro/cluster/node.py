"""A cluster node: the single-server testbed wrapped for fleet duty.

:class:`Node` composes the pieces the seed repo already trusts — a
:class:`~repro.testbed.server.ProcessorComplex` core pool for transport
ingest, the :class:`~repro.testbed.pcie.PcieLink` hop for on-path SNIC
profiles, and a :class:`~repro.netstack.tcp.TcpEndpoint` — behind one
``receive()`` entry point the fabric delivers into.  Which complex runs
the transport, with how many cores, at what per-packet cost, and whether
ingress crosses PCIe all come from the node's calibrated
:class:`~repro.calibration.NodeProfile`:

* ``host+bf2``  — the SNIC's Arm cores ingest, packets cross PCIe to the
  host TCP endpoint (the paper's on-path mode at rack scale);
* ``host-only`` — host cores ingest, no PCIe hop, but those cores are
  taken from the application (the unpaid datacenter tax);
* ``all-snic``  — the Arm complex is the whole node.

The wrap is deliberately thin: a one-node cluster with no fabric is the
seed testbed, byte for byte (DESIGN.md §15's reduction contract).
"""

from __future__ import annotations

from typing import Optional

from ..calibration import NODE_PROFILES, NodeProfile
from ..core.engine import Simulator
from ..hardware.specs import BLUEFIELD2, NODE_SPECS, NodeSpec
from ..netstack.link import Link
from ..netstack.packet import Packet
from ..netstack.tcp import TcpEndpoint
from ..testbed.pcie import PcieLink
from ..testbed.server import CONSUME, ProcessorComplex

# Per-packet transport cost is priced at a representative MTU-class
# frame; the complexes charge per packet, not per byte (testbed idiom).
TRANSPORT_PRICING_BYTES = 1500


class Node:
    """One rack slot: transport complex + optional PCIe hop + TCP stack."""

    def __init__(self, sim: Simulator, node_id: int, address: int,
                 profile: NodeProfile, egress: Link, ecn: bool = True):
        self.sim = sim
        self.node_id = node_id
        self.address = address
        self.profile = profile
        self.spec: NodeSpec = NODE_SPECS[profile.spec_key]
        self.endpoint = TcpEndpoint(sim, address, egress, ecn=ecn)
        service_s = profile.transport_packet_seconds(TRANSPORT_PRICING_BYTES)
        self.ingest = ProcessorComplex(
            sim, f"node{node_id}-{profile.transport_platform}",
            profile.transport_cores, service_s, self._ingest_handler,
        )
        self.pcie: Optional[PcieLink] = None
        if profile.pcie_hop:
            self.pcie = PcieLink(sim, BLUEFIELD2.pcie,
                                 name=f"node{node_id}-snic->host")
        self._egress = egress

    @classmethod
    def build(cls, sim: Simulator, node_id: int, address: int,
              profile_key: str, egress: Link, ecn: bool = True) -> "Node":
        return cls(sim, node_id, address, NODE_PROFILES[profile_key],
                   egress, ecn=ecn)

    # -- fabric-facing -----------------------------------------------------

    def receive(self, packet: Packet) -> None:
        """Entry point the fabric's access port delivers into."""
        self.ingest.submit(packet)

    def _ingest_handler(self, packet: Packet) -> str:
        if self.pcie is not None:
            self.pcie.transfer(packet.wire_bytes, packet).add_callback(
                self._deliver_over_pcie)
        else:
            self.endpoint.deliver(packet)
        return CONSUME

    def _deliver_over_pcie(self, event) -> None:
        self.endpoint.deliver(event.value)

    # -- accounting --------------------------------------------------------

    @property
    def packets_ingested(self) -> int:
        return self.ingest.stats.handled
