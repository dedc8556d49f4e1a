"""IPsec ESP tunnel processing (the strongSwan use case, §2.2 A2).

The paper motivates the crypto engine with strongSwan, the IPsec VPN
stack.  This module implements the datapath such a gateway runs per
packet: ESP encapsulation (SPI + sequence number, AES-CTR payload
encryption, truncated SHA-1 integrity tag), decapsulation with tag
verification, and the RFC 4303 anti-replay window.

Work units per packet: AES blocks + SHA-1 blocks from the real
primitives, plus header handling — which makes this the "crypto applied
at packet rate" workload the PKA engine exists for.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.work import WorkUnits
from .crypto import aes, sha1

ESP_HEADER = struct.Struct(">II")  # SPI, sequence number
ICV_BYTES = 12  # truncated HMAC-style tag, as ESP does
REPLAY_WINDOW = 64


class IpsecError(ValueError):
    pass


@dataclass
class SecurityAssociation:
    """One direction of a tunnel: keys, SPI, counters, replay state."""

    spi: int
    encryption_key: bytes
    integrity_key: bytes
    sequence: int = 0
    # receive-side anti-replay (RFC 4303 §3.4.3)
    highest_seen: int = 0
    window: int = 0
    replays_rejected: int = 0

    def __post_init__(self):
        if len(self.encryption_key) != 16:
            raise IpsecError("AES-128 key must be 16 bytes")
        if not self.integrity_key:
            raise IpsecError("integrity key required")

    # -- replay window -----------------------------------------------------

    def check_and_update_replay(self, sequence: int) -> bool:
        """True if the sequence number is fresh; updates the window."""
        if sequence == 0:
            return False
        if sequence > self.highest_seen:
            shift = sequence - self.highest_seen
            self.window = ((self.window << shift) | 1) & ((1 << REPLAY_WINDOW) - 1)
            self.highest_seen = sequence
            return True
        offset = self.highest_seen - sequence
        if offset >= REPLAY_WINDOW:
            self.replays_rejected += 1
            return False
        bit = 1 << offset
        if self.window & bit:
            self.replays_rejected += 1
            return False
        self.window |= bit
        return True


def _tag(sa: SecurityAssociation, data: bytes) -> Tuple[bytes, WorkUnits]:
    digest, work = sha1.digest(sa.integrity_key + data)
    return digest[:ICV_BYTES], work


def encapsulate(sa: SecurityAssociation, payload: bytes) -> Tuple[bytes, WorkUnits]:
    """Build an ESP packet around ``payload``; returns (packet, work)."""
    sa.sequence += 1
    header = ESP_HEADER.pack(sa.spi, sa.sequence)
    ciphertext, encrypt_work = aes.encrypt_ctr(
        payload, sa.encryption_key, nonce=sa.sequence
    )
    body = header + ciphertext
    tag, tag_work = _tag(sa, body)
    work = WorkUnits({"instr": 120.0, "pkt_touch_byte": float(len(payload))})
    work.merge(encrypt_work).merge(tag_work)
    return body + tag, work


def decapsulate(
    sa: SecurityAssociation, packet: bytes
) -> Tuple[Optional[bytes], WorkUnits]:
    """Verify + decrypt; returns (payload, work); payload is None when the
    packet is rejected (bad tag, replay, malformed)."""
    work = WorkUnits({"instr": 120.0})
    if len(packet) < ESP_HEADER.size + ICV_BYTES:
        return None, work
    body, tag = packet[:-ICV_BYTES], packet[-ICV_BYTES:]
    expected, tag_work = _tag(sa, body)
    work.merge(tag_work)
    if tag != expected:
        return None, work
    spi, sequence = ESP_HEADER.unpack(body[: ESP_HEADER.size])
    if spi != sa.spi:
        return None, work
    if not sa.check_and_update_replay(sequence):
        return None, work
    ciphertext = body[ESP_HEADER.size:]
    plaintext, decrypt_work = aes.encrypt_ctr(ciphertext, sa.encryption_key,
                                              nonce=sequence)
    work.merge(decrypt_work)
    work.add("pkt_touch_byte", float(len(plaintext)))
    return plaintext, work


@dataclass
class Tunnel:
    """A bidirectional tunnel: an outbound SA and an inbound SA."""

    outbound: SecurityAssociation
    inbound: SecurityAssociation
    packets_protected: int = 0
    packets_rejected: int = 0

    @classmethod
    def create(cls, spi: int, encryption_key: bytes, integrity_key: bytes) -> "Tunnel":
        return cls(
            outbound=SecurityAssociation(spi, encryption_key, integrity_key),
            inbound=SecurityAssociation(spi, encryption_key, integrity_key),
        )

    def protect(self, payload: bytes) -> Tuple[bytes, WorkUnits]:
        packet, work = encapsulate(self.outbound, payload)
        self.packets_protected += 1
        return packet, work

    def unprotect(self, packet: bytes) -> Tuple[Optional[bytes], WorkUnits]:
        payload, work = decapsulate(self.inbound, packet)
        if payload is None:
            self.packets_rejected += 1
        return payload, work
