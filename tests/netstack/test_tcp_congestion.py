"""Tests for TCP congestion control and adaptive RTO."""

import heapq

import numpy as np

from repro.core.engine import Simulator
from repro.netstack.packet import ip
from repro.netstack.tcp import TcpEndpoint
from repro.netstack.tcp import DEFAULT_SSTHRESH, INITIAL_CWND, MIN_RTO, MSS
from tests.netstack.channel import DuplexChannel


def step(sim):
    """Fire the kernel's next event; False once its queue is empty."""
    if not sim._queue:
        return False
    sim.now, _, event = heapq.heappop(sim._queue)
    event._fire()
    return True


def make_pair(sim, loss=0.0, seed=0, gbps=100.0):
    rng = np.random.default_rng(seed)
    channel = DuplexChannel(sim, gbps=gbps, loss_probability=loss, rng=rng)
    a = TcpEndpoint(sim, ip(10, 0, 0, 1), channel.forward)
    b = TcpEndpoint(sim, ip(10, 0, 0, 2), channel.backward)
    channel.forward.attach(b.deliver)
    channel.backward.attach(a.deliver)
    return a, b


def start_transfer(sim, a, b, nbytes):
    listener = b.listen(80)
    connection = a.connect(40000, ip(10, 0, 0, 2), 80)
    data = bytes(range(256)) * (nbytes // 256 + 1)
    data = data[:nbytes]
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
    return connection, data, received


class TestCongestionWindow:
    def test_initial_window_rfc6928(self):
        sim = Simulator()
        a, b = make_pair(sim)
        connection, _, _ = start_transfer(sim, a, b, 1000)
        assert connection.cwnd == INITIAL_CWND * MSS

    def test_window_limits_in_flight(self):
        """A large send must not flood the wire: bytes in flight stay
        within cwnd at all times."""
        sim = Simulator()
        a, b = make_pair(sim)
        connection, _, _ = start_transfer(sim, a, b, 500 * MSS)
        sim.run(until=5e-4)  # mid-transfer
        assert connection.bytes_in_flight <= connection.cwnd + MSS

    def test_slow_start_doubles_window(self):
        sim = Simulator()
        a, b = make_pair(sim)
        connection, data, received = start_transfer(sim, a, b, 400 * MSS)
        sim.run(until=60.0)
        assert received and received[0] == data
        assert connection.cwnd > INITIAL_CWND * MSS  # grew during transfer

    def test_large_lossless_transfer_completes(self):
        sim = Simulator()
        a, b = make_pair(sim)
        connection, data, received = start_transfer(sim, a, b, 2000 * MSS)
        sim.run(until=120.0)
        assert received and received[0] == data
        assert connection.retransmissions == 0

    def test_timeout_collapses_window(self):
        sim = Simulator()
        a, b = make_pair(sim, loss=0.15, seed=2)
        connection, data, received = start_transfer(sim, a, b, 300 * MSS)
        sim.run(until=200.0)
        assert received and received[0] == data
        assert connection.retransmissions > 0
        assert connection.ssthresh < DEFAULT_SSTHRESH  # decrease happened

    def test_congestion_avoidance_linear_growth(self):
        """Past ssthresh, growth per ACK is ~MSS^2/cwnd, not +acked."""
        sim = Simulator()
        a, b = make_pair(sim)
        connection, _, _ = start_transfer(sim, a, b, 10 * MSS)
        connection.ssthresh = 1  # force congestion avoidance
        before = connection.cwnd
        connection._grow_cwnd(MSS)
        assert connection.cwnd - before <= MSS


class TestAdaptiveRto:
    def test_rto_adapts_to_path_rtt(self):
        """After samples on a microsecond-scale path, the RTO should fall
        from its conservative default toward the RTT scale."""
        sim = Simulator()
        a, b = make_pair(sim)
        connection, data, received = start_transfer(sim, a, b, 200 * MSS)
        sim.run(until=60.0)
        assert received
        assert connection.rto <= 20e-3
        assert connection.rto >= MIN_RTO

    def test_srtt_tracks_wire_latency(self):
        sim = Simulator()
        a, b = make_pair(sim)
        connection, data, received = start_transfer(sim, a, b, 100 * MSS)
        sim.run(until=60.0)
        assert received
        # propagation 500ns each way + serialization; srtt ~ microseconds
        assert 5e-7 < connection._srtt < 5e-3

    def test_backoff_on_repeated_loss(self):
        sim = Simulator()
        a, b = make_pair(sim, loss=0.35, seed=4)
        connection, data, received = start_transfer(sim, a, b, 50 * MSS)
        sim.run(until=400.0)
        assert received and received[0] == data  # still exactly-once

    def test_karns_rule_skips_retransmitted_samples(self):
        """Retransmitted segments must not poison the RTT estimate: after
        a retransmission storm the srtt stays near the real RTT, not the
        RTO scale."""
        sim = Simulator()
        a, b = make_pair(sim, loss=0.2, seed=6)
        connection, data, received = start_transfer(sim, a, b, 200 * MSS)
        sim.run(until=400.0)
        assert received
        if connection._srtt is not None:
            assert connection._srtt < 5e-3


class TestBytesInFlight:
    def test_running_count_tracks_unacked_through_timeout_and_cumulative_ack(self):
        """``bytes_in_flight`` is kept as segments enter and leave the
        unacked queue, not summed; it must equal that sum after every
        event, through a timeout retransmission and the cumulative ACK
        that follows it."""
        sim = Simulator()
        a, b = make_pair(sim)
        data_packets = []

        def drop_third_data_segment(packet, depth_bytes):
            if packet.payload:
                data_packets.append(packet.seq)
                return len(data_packets) != 3  # lose its first copy only
            return True

        a.egress.on_enqueue = drop_third_data_segment
        connection, data, received = start_transfer(sim, a, b, 8 * MSS)
        before = 0
        widest_ack = 0  # most segments one event removed from the queue
        while step(sim):
            unacked = connection._unacked
            assert connection.bytes_in_flight == sum(
                len(segment.payload) for segment in unacked)
            widest_ack = max(widest_ack, before - len(unacked))
            before = len(unacked)
        assert received and received[0] == data
        assert connection.retransmissions >= 1
        assert data_packets.count(data_packets[2]) >= 2  # resent after the RTO
        assert connection.bytes_in_flight == 0
        # Once the hole is filled, one ACK covers every segment the
        # receiver had buffered behind it.
        assert widest_ack >= 5
