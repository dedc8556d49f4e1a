"""The embedded switch inside ConnectX-6 Dx / BlueField-2 (§2.2-2.3).

The eSwitch sits between the wire and the two processor complexes and
implements the paper's two operation modes:

* **on-path** — every ingress packet is steered to the SNIC CPU complex
  first; the SNIC CPU (running OvS as the control plane) decides whether
  to consume it or forward it over PCIe to the host;
* **off-path** — the eSwitch forwards by destination address directly to
  the SNIC CPU or the host, with no SNIC CPU involvement.

Forwarding is bump-in-the-wire: the switch adds only a small fixed
latency and is capacity-bounded at the line rate.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict

from ..core.engine import Simulator
from ..core.units import gbps_to_bytes_per_second
from ..netstack.packet import Packet

Receiver = Callable[[Packet], None]


class OperationMode(Enum):
    ON_PATH = "on-path"
    OFF_PATH = "off-path"


class Destination(Enum):
    SNIC_CPU = "snic-cpu"
    HOST = "host"
    WIRE = "wire"


class ESwitch:
    """Ingress/egress steering fabric of the SmartNIC."""

    def __init__(
        self,
        sim: Simulator,
        mode: OperationMode = OperationMode.ON_PATH,
        line_rate_gbps: float = 100.0,
        forwarding_latency_s: float = 300e-9,
    ):
        self.sim = sim
        self.mode = mode
        self.bytes_per_second = gbps_to_bytes_per_second(line_rate_gbps)
        self.forwarding_latency_s = forwarding_latency_s
        self._receivers: Dict[Destination, Receiver] = {}
        # off-path steering: destination IP -> destination complex
        self._address_map: Dict[int, Destination] = {}
        self._busy_until = 0.0
        self.forwarded = 0
        self.dropped_no_receiver = 0

    def attach(self, destination: Destination, receiver: Receiver) -> None:
        self._receivers[destination] = receiver

    def map_address(self, address: int, destination: Destination) -> None:
        """Off-path rule: packets for ``address`` go straight to ``destination``."""
        if destination is Destination.WIRE:
            raise ValueError("cannot map an address to the wire")
        self._address_map[address] = destination

    def _steer(self, packet: Packet) -> Destination:
        if self.mode is OperationMode.ON_PATH:
            # Everything goes through the SNIC CPU complex first (§2.3 M1).
            return Destination.SNIC_CPU
        return self._address_map.get(packet.dst_ip, Destination.HOST)

    def ingress(self, packet: Packet) -> None:
        """A packet arriving from the wire."""
        self._forward(packet, self._steer(packet))

    def egress(self, packet: Packet) -> None:
        """A packet leaving toward the wire."""
        self._forward(packet, Destination.WIRE)

    def snic_to_host(self, packet: Packet) -> None:
        """On-path hand-off from the SNIC CPU toward the host complex."""
        self._forward(packet, Destination.HOST)

    def _forward(self, packet: Packet, destination: Destination) -> None:
        receiver = self._receivers.get(destination)
        if receiver is None:
            self.dropped_no_receiver += 1
            return
        serialization = packet.wire_bytes / self.bytes_per_second
        start = max(self.sim.now, self._busy_until)
        self._busy_until = start + serialization
        delay = (start - self.sim.now) + serialization + self.forwarding_latency_s
        event = self.sim.timeout(delay, packet)
        event.add_callback(lambda fired: self._deliver(receiver, fired.value))

    def _deliver(self, receiver: Receiver, packet: Packet) -> None:
        self.forwarded += 1
        receiver(packet)
