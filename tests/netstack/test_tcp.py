"""Tests for the TCP state machine: handshake, transfer, loss recovery."""

import numpy as np
import pytest

from repro.core.engine import Simulator
from repro.netstack.packet import ip
from repro.netstack.tcp import TcpEndpoint, TcpState
from tests.netstack.channel import DuplexChannel


def make_pair(sim, loss=0.0, seed=0):
    rng = np.random.default_rng(seed)
    channel = DuplexChannel(sim, loss_probability=loss, rng=rng)
    a = TcpEndpoint(sim, ip(10, 0, 0, 1), channel.forward)
    b = TcpEndpoint(sim, ip(10, 0, 0, 2), channel.backward)
    channel.forward.attach(b.deliver)
    channel.backward.attach(a.deliver)
    return a, b


def transfer(sim, a, b, data, until=30.0):
    listener = b.listen(80)
    connection = a.connect(40000, ip(10, 0, 0, 2), 80)
    received = []

    def server():
        conn = yield listener.accept()
        yield conn.established()
        payload = yield conn.recv(len(data))
        received.append(payload)

    def client():
        yield connection.established()
        connection.send(data)

    sim.process(server())
    sim.process(client())
    sim.run(until=until)
    return connection, received


class TestHandshake:
    def test_three_way_handshake(self):
        sim = Simulator()
        a, b = make_pair(sim)
        listener = b.listen(80)
        connection = a.connect(40000, ip(10, 0, 0, 2), 80)
        accepted = []

        def server():
            conn = yield listener.accept()
            yield conn.established()
            accepted.append(conn)

        sim.process(server())
        sim.run(until=1.0)
        assert connection.state is TcpState.ESTABLISHED
        assert accepted and accepted[0].state is TcpState.ESTABLISHED

    def test_double_listen_rejected(self):
        sim = Simulator()
        _, b = make_pair(sim)
        b.listen(80)
        with pytest.raises(OSError):
            b.listen(80)

    def test_send_before_established_rejected(self):
        sim = Simulator()
        a, b = make_pair(sim)
        b.listen(80)
        connection = a.connect(40000, ip(10, 0, 0, 2), 80)
        with pytest.raises(OSError):
            connection.send(b"too early")


class TestTransfer:
    def test_small_message(self):
        sim = Simulator()
        a, b = make_pair(sim)
        _, received = transfer(sim, a, b, b"hello tcp")
        assert received == [b"hello tcp"]

    def test_multi_segment_message(self):
        sim = Simulator()
        a, b = make_pair(sim)
        data = bytes(range(256)) * 40  # ~10 KB, 7 segments
        _, received = transfer(sim, a, b, data)
        assert received == [data]

    def test_no_retransmissions_without_loss(self):
        sim = Simulator()
        a, b = make_pair(sim)
        connection, _ = transfer(sim, a, b, b"x" * 5000)
        assert connection.retransmissions == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lossy_link_delivers_exactly_once(self, seed):
        sim = Simulator()
        a, b = make_pair(sim, loss=0.1, seed=seed)
        data = bytes(range(256)) * 40
        connection, received = transfer(sim, a, b, data)
        assert received == [data]

    def test_heavy_loss_still_recovers(self):
        sim = Simulator()
        a, b = make_pair(sim, loss=0.25, seed=5)
        data = b"important" * 500
        connection, received = transfer(sim, a, b, data, until=120.0)
        assert received == [data]
        assert connection.retransmissions > 0


class TestRequestResponse:
    def test_echo_service_over_tcp(self):
        """A Redis-shaped interaction: request, server transforms, reply."""
        sim = Simulator()
        a, b = make_pair(sim)
        listener = b.listen(6379)
        connection = a.connect(40000, ip(10, 0, 0, 2), 6379)
        replies = []

        def server():
            conn = yield listener.accept()
            yield conn.established()
            request = yield conn.recv(5)
            conn.send(request.upper())

        def client():
            yield connection.established()
            connection.send(b"hello")
            reply = yield connection.recv(5)
            replies.append(reply)

        sim.process(server())
        sim.process(client())
        sim.run(until=5.0)
        assert replies == [b"HELLO"]
