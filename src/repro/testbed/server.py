"""The evaluation system of Fig. 3 assembled on the event kernel.

:class:`SnicServer` wires together the wire link, the eSwitch, the SNIC
CPU complex, the PCIe link, and the host CPU complex.  Packets take the
paper's on-path route (wire -> eSwitch -> SNIC CPU -> [PCIe -> host]),
or the off-path route when the eSwitch is configured for it.

Each processor complex is a `core pool + per-packet handler` pair; the
handler declares where the packet terminates ("consume") or continues
("to-host", "reply").  The testbed is deliberately packet-accurate and
therefore slow — it exists to *cross-validate* the calibrated fast path
at low rates (see tests/testbed/), not to run the sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from ..core.engine import Simulator
from ..core.metrics import LatencyRecorder, ThroughputMeter
from ..core.resources import Resource
from ..hardware.specs import BLUEFIELD2
from ..netstack.link import Link
from ..netstack.packet import Packet
from .eswitch import Destination, ESwitch, OperationMode
from .pcie import PcieLink

# Handler verdicts
CONSUME = "consume"
TO_HOST = "to-host"
REPLY = "reply"

Handler = Callable[[Packet], str]


@dataclass
class ComplexStats:
    handled: int = 0
    consumed: int = 0
    forwarded: int = 0
    replied: int = 0


class ProcessorComplex:
    """A pool of cores running a per-packet handler."""

    def __init__(self, sim: Simulator, name: str, cores: int,
                 per_packet_service_s: float, handler: Handler):
        self.sim = sim
        self.name = name
        self.cores = Resource(sim, cores, name=f"{name}-cores")
        self.per_packet_service_s = per_packet_service_s
        self.handler = handler
        self.stats = ComplexStats()
        self.on_forward: Optional[Callable[[Packet], None]] = None
        self.on_reply: Optional[Callable[[Packet], None]] = None

    def submit(self, packet: Packet) -> None:
        self.sim.process(self._serve(packet), name=f"{self.name}-pkt")

    def _serve(self, packet: Packet):
        request = self.cores.request()
        yield request
        yield self.sim.timeout(self.per_packet_service_s)
        verdict = self.handler(packet)
        self.cores.release()
        self.stats.handled += 1
        if verdict == TO_HOST:
            self.stats.forwarded += 1
            if self.on_forward is not None:
                self.on_forward(packet)
        elif verdict == REPLY:
            self.stats.replied += 1
            if self.on_reply is not None:
                reply = packet.reply_template(packet.payload)
                reply.packet_id = packet.packet_id  # echo correlation
                self.on_reply(reply)
        else:
            self.stats.consumed += 1


class SnicServer:
    """Fig. 3's server: host CPU + BlueField-2, both ends of the wire."""

    def __init__(
        self,
        sim: Simulator,
        snic_handler: Handler,
        host_handler: Handler,
        mode: OperationMode = OperationMode.ON_PATH,
        snic_service_s: float = 2e-6,
        host_service_s: float = 1e-6,
        snic_cores: Optional[int] = None,
        host_cores: int = 8,
    ):
        self.sim = sim
        self.eswitch = ESwitch(sim, mode=mode)
        self.pcie_to_host = PcieLink(sim, BLUEFIELD2.pcie, name="snic->host")
        self.pcie_to_snic = PcieLink(sim, BLUEFIELD2.pcie, name="host->snic")
        self.snic = ProcessorComplex(
            sim, "snic-cpu", snic_cores or BLUEFIELD2.cpu.cores,
            snic_service_s, snic_handler,
        )
        self.host = ProcessorComplex(
            sim, "host-cpu", host_cores, host_service_s, host_handler
        )
        self.egress_link: Optional[Link] = None

        self.eswitch.attach(Destination.SNIC_CPU, self.snic.submit)
        self.eswitch.attach(Destination.HOST, self._host_over_pcie)
        self.eswitch.attach(Destination.WIRE, self._to_wire)
        self.snic.on_forward = self.eswitch.snic_to_host
        self.snic.on_reply = self.eswitch.egress
        self.host.on_reply = self._host_reply

    # -- wiring ----------------------------------------------------------

    def attach_wire(self, egress: Link) -> None:
        """The cable back toward the client."""
        self.egress_link = egress

    def receive(self, packet: Packet) -> None:
        """Entry point for packets arriving from the wire."""
        self.eswitch.ingress(packet)

    # -- internal paths ----------------------------------------------------

    def _host_over_pcie(self, packet: Packet) -> None:
        event = self.pcie_to_host.transfer(packet.wire_bytes)
        event.add_callback(lambda _e: self.host.submit(packet))

    def _host_reply(self, reply: Packet) -> None:
        event = self.pcie_to_snic.transfer(reply.wire_bytes)
        event.add_callback(lambda _e: self.eswitch.egress(reply))

    def _to_wire(self, packet: Packet) -> None:
        if self.egress_link is not None:
            self.egress_link.send(packet)


def reply_all(_packet: Packet) -> str:
    return REPLY


def forward_all(_packet: Packet) -> str:
    return TO_HOST


@dataclass
class EchoMeasurement:
    latencies: LatencyRecorder
    throughput: ThroughputMeter
    sent: int = 0


def run_udp_echo_measurement(
    sim: Simulator,
    server: SnicServer,
    serve_on: str,
    n_packets: int,
    interval_s: float,
    payload_bytes: int = 64,
    wire_latency_s: float = 1e-6,
) -> EchoMeasurement:
    """Drive the testbed with paced echo requests and record RTTs.

    ``serve_on`` selects which complex answers: "snic" (its handler
    replies) or "host" (the SNIC forwards over PCIe, the host replies).
    """
    if serve_on == "snic":
        server.snic.handler = reply_all
    elif serve_on == "host":
        server.snic.handler = forward_all
        server.host.handler = reply_all
    else:
        raise ValueError("serve_on must be 'snic' or 'host'")

    measurement = EchoMeasurement(LatencyRecorder(), ThroughputMeter())
    ingress = Link(sim, gbps=100.0, propagation_s=wire_latency_s)
    egress = Link(sim, gbps=100.0, propagation_s=wire_latency_s)
    ingress.attach(server.receive)
    server.attach_wire(egress)
    sent_at: Dict[int, float] = {}

    def on_reply(packet: Packet) -> None:
        started = sent_at.pop(packet.packet_id, None)
        if started is not None:
            rtt = sim.now - started
            measurement.latencies.record(sim.now, rtt)
            measurement.throughput.record(sim.now, packet.wire_bytes)

    egress.attach(on_reply)

    def client():
        for index in range(n_packets):
            packet = Packet(
                proto=17, src_ip=1, src_port=9000, dst_ip=2, dst_port=53,
                payload=b"x" * payload_bytes, packet_id=index + 1,
            )
            sent_at[packet.packet_id] = sim.now
            measurement.sent += 1
            ingress.send(packet)
            yield sim.timeout(interval_s)

    sim.process(client())
    return measurement
