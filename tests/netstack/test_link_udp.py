"""Tests for the packet and link models."""

import numpy as np
import pytest

from repro.core.engine import Simulator
from repro.netstack.link import Link
from repro.netstack.packet import PROTO_UDP, Packet, ip


def make_packet(payload=b"x", dst_port=7):
    return Packet(
        proto=PROTO_UDP, src_ip=ip(10, 0, 0, 1), src_port=1234,
        dst_ip=ip(10, 0, 0, 2), dst_port=dst_port, payload=payload,
    )


class TestPacketModel:
    def test_ip_helpers_roundtrip(self):
        address = ip(192, 168, 1, 42)
        assert address == (192 << 24) | (168 << 16) | (1 << 8) | 42

    def test_ip_octet_validation(self):
        with pytest.raises(ValueError):
            ip(300, 0, 0, 1)

    def test_wire_bytes_has_minimum_frame(self):
        packet = make_packet(b"")
        assert packet.wire_bytes == 64

    def test_wire_bytes_includes_headers(self):
        packet = make_packet(b"z" * 1000)
        assert packet.wire_bytes == 14 + 20 + 8 + 1000

    def test_reply_template_swaps_direction(self):
        packet = make_packet()
        reply = packet.reply_template(b"pong")
        assert reply.dst_ip == packet.src_ip
        assert reply.src_port == packet.dst_port
        assert reply.payload == b"pong"


class TestLink:
    def test_delivery_latency(self):
        sim = Simulator()
        link = Link(sim, gbps=100.0, propagation_s=1e-6)
        arrivals = []
        link.attach(lambda p: arrivals.append(sim.now))
        link.send(make_packet(b"x" * 958))  # 1000B frame -> 80ns at 100G
        sim.run()
        assert arrivals[0] == pytest.approx(1e-6 + 1000 * 8 / 100e9)

    def test_serialization_is_fifo(self):
        sim = Simulator()
        link = Link(sim, gbps=0.001, propagation_s=0.0)  # slow link
        order = []
        link.attach(lambda p: order.append(p.payload))
        link.send(make_packet(b"a"))
        link.send(make_packet(b"b"))
        sim.run()
        assert order == [b"a", b"b"]
        # second packet waits for the first's serialization
        assert link.delivered == 2

    def test_loss(self):
        sim = Simulator()
        rng = np.random.default_rng(0)
        link = Link(sim, loss_probability=0.5, rng=rng)
        link.attach(lambda p: None)
        for _ in range(200):
            link.send(make_packet())
        sim.run()
        assert 40 < link.lost < 160

    def test_requires_receiver(self):
        sim = Simulator()
        link = Link(sim)
        with pytest.raises(RuntimeError):
            link.send(make_packet())

    def test_parameter_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, gbps=0)
        with pytest.raises(ValueError):
            Link(sim, loss_probability=1.5)
