"""Packet primitives shared by the stack models."""

from __future__ import annotations

from dataclasses import dataclass, field

PROTO_TCP = 6
PROTO_UDP = 17

ETHERNET_HEADER = 14
IPV4_HEADER = 20
UDP_HEADER = 8
TCP_HEADER = 20
# Frame header bytes ahead of the payload on the wire.
TCP_FRAME_HEADER = ETHERNET_HEADER + IPV4_HEADER + TCP_HEADER
UDP_FRAME_HEADER = ETHERNET_HEADER + IPV4_HEADER + UDP_HEADER


@dataclass(slots=True)
class Packet:
    """A network packet: addressing, payload, and simulation bookkeeping."""

    proto: int
    src_ip: int
    src_port: int
    dst_ip: int
    dst_port: int
    payload: bytes = b""
    # TCP-specific fields (ignored by UDP paths)
    seq: int = 0
    ack: int = 0
    flags: frozenset = frozenset()
    # ECN codepoint (RFC 3168): ``ecn_capable`` is ECT on the wire, ``ce``
    # is the Congestion Experienced mark a queue may set in transit.
    ecn_capable: bool = False
    ce: bool = False
    # simulation bookkeeping
    created_at: float = 0.0
    packet_id: int = 0
    # Frame bytes on the wire, at least a minimum Ethernet frame.  Every
    # hop reads it, so it is computed once: a packet's protocol and
    # payload are fixed when it is built.
    wire_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        header = TCP_FRAME_HEADER if self.proto == PROTO_TCP else UDP_FRAME_HEADER
        self.wire_bytes = max(header + len(self.payload), 64)

    def reply_template(self, payload: bytes = b"") -> "Packet":
        """A packet heading back to this packet's sender."""
        return Packet(
            proto=self.proto,
            src_ip=self.dst_ip,
            src_port=self.dst_port,
            dst_ip=self.src_ip,
            dst_port=self.src_port,
            payload=payload,
        )


def ip(a: int, b: int, c: int, d: int) -> int:
    """Dotted-quad to integer address."""
    for octet in (a, b, c, d):
        if not 0 <= octet <= 255:
            raise ValueError("bad IPv4 octet")
    return (a << 24) | (b << 16) | (c << 8) | d
