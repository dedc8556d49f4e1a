"""Tests for the DPDK poll-mode model and RDMA verbs."""

import pytest

from repro.core.engine import Simulator
from repro.netstack import (
    DuplexChannel,
    PollModePort,
    QueuePair,
    RdmaError,
    RdmaNic,
    RxRing,
    ip,
    run_poll_loop,
)
from repro.netstack.packet import PROTO_UDP, Packet
from repro.netstack.rdma import OpCode


def make_packet(payload=b"x"):
    return Packet(proto=PROTO_UDP, src_ip=1, src_port=1, dst_ip=2, dst_port=2,
                  payload=payload)


class TestRxRing:
    def test_fifo(self):
        ring = RxRing(4)
        for label in (b"a", b"b"):
            ring.offer(make_packet(label))
        burst = ring.poll(10)
        assert [p.payload for p in burst] == [b"a", b"b"]

    def test_tail_drop(self):
        ring = RxRing(2)
        results = [ring.offer(make_packet()) for _ in range(3)]
        assert results == [True, True, False]
        assert ring.tail_drops == 1

    def test_burst_bound(self):
        ring = RxRing(100)
        for _ in range(50):
            ring.offer(make_packet())
        assert len(ring.poll(32)) == 32
        assert len(ring) == 18

    def test_size_validation(self):
        with pytest.raises(ValueError):
            RxRing(0)


class TestPollMode:
    def test_ping_pong(self):
        """The dpu-pingpong microbenchmark shape (§3.3)."""
        sim = Simulator()
        channel = DuplexChannel(sim)
        client_port = PollModePort(sim, channel.forward)
        server_port = PollModePort(sim, channel.backward)
        channel.forward.attach(server_port.deliver)
        channel.backward.attach(client_port.deliver)

        run_poll_loop(sim, server_port, lambda p: p.reply_template(p.payload),
                      stop_after=3)
        rtts = []

        def client():
            for i in range(3):
                sent_at = sim.now
                client_port.tx_burst([
                    Packet(proto=PROTO_UDP, src_ip=1, src_port=9, dst_ip=2,
                           dst_port=9, payload=b"ping%d" % i)
                ])
                while True:
                    burst = client_port.rx_burst()
                    if burst:
                        rtts.append(sim.now - sent_at)
                        break
                    yield sim.timeout(1e-7)

        sim.process(client())
        sim.run(until=1.0)
        assert len(rtts) == 3
        assert all(0 < rtt < 1e-4 for rtt in rtts)

    def test_poll_loop_counts(self):
        sim = Simulator()
        channel = DuplexChannel(sim)
        port = PollModePort(sim, channel.forward)
        channel.forward.attach(lambda p: None)
        channel.backward.attach(port.deliver)
        for i in range(5):
            channel.backward.send(make_packet(b"p%d" % i))
        process = run_poll_loop(sim, port, lambda p: None, stop_after=5)
        sim.run(until=1.0)
        assert process.value == 5
        assert port.rx_packets == 5


class TestRdma:
    def _connected_pair(self, sim, host_bus=900e-9, snic_bus=300e-9):
        client_nic = RdmaNic(sim, 1, local_bus_latency_s=host_bus)
        server_nic = RdmaNic(sim, 2, local_bus_latency_s=snic_bus)
        qp_client = QueuePair(sim, client_nic, server_nic)
        qp_server = QueuePair(sim, server_nic, client_nic)
        qp_client.connect(qp_server)
        return client_nic, server_nic, qp_client, qp_server

    def test_one_sided_read(self):
        sim = Simulator()
        _, server_nic, qp, _ = self._connected_pair(sim)
        region = server_nic.register_memory(b"remote memory contents")
        results = []

        def reader():
            completion = yield qp.read(region.key, 7, 6)
            results.append(completion)

        sim.process(reader())
        sim.run()
        assert results[0].ok
        assert results[0].data == b"memory"

    def test_one_sided_write(self):
        sim = Simulator()
        _, server_nic, qp, _ = self._connected_pair(sim)
        region = server_nic.register_memory(16)

        def writer():
            yield qp.write(region.key, 4, b"DATA")

        sim.process(writer())
        sim.run()
        assert bytes(region.buffer[4:8]) == b"DATA"

    def test_out_of_bounds_read_fails(self):
        sim = Simulator()
        _, server_nic, qp, _ = self._connected_pair(sim)
        region = server_nic.register_memory(8)
        results = []

        def reader():
            completion = yield qp.read(region.key, 4, 100)
            results.append(completion)

        sim.process(reader())
        sim.run()
        assert not results[0].ok

    def test_unknown_rkey_fails(self):
        sim = Simulator()
        _, _, qp, _ = self._connected_pair(sim)
        results = []

        def reader():
            completion = yield qp.read(999, 0, 4)
            results.append(completion)

        sim.process(reader())
        sim.run()
        assert not results[0].ok

    def test_two_sided_send_recv(self):
        sim = Simulator()
        _, _, qp_client, qp_server = self._connected_pair(sim)
        qp_server.post_recv(wr_id=11)
        completions = []

        def receiver():
            completion = yield qp_server.poll_cq()
            completions.append(completion)

        def sender():
            ok = yield qp_client.post_send(b"rpc-request")
            completions.append(("send-ok", ok))

        sim.process(receiver())
        sim.process(sender())
        sim.run()
        recv = [c for c in completions if isinstance(c, tuple) is False][0]
        assert recv.opcode is OpCode.RECV
        assert recv.data == b"rpc-request"
        assert recv.wr_id == 11

    def test_send_without_posted_recv_fails(self):
        sim = Simulator()
        _, _, qp_client, _ = self._connected_pair(sim)
        outcome = []

        def sender():
            ok = yield qp_client.post_send(b"dropped")
            outcome.append(ok)

        sim.process(sender())
        sim.run()
        assert outcome == [False]

    def test_unconnected_qp_raises(self):
        sim = Simulator()
        nic = RdmaNic(sim, 1)
        qp = QueuePair(sim, nic, nic)
        with pytest.raises(RdmaError):
            qp.read(1, 0, 4)

    def test_snic_side_has_lower_latency(self):
        """The paper's path asymmetry: host verbs cross PCIe (~900 ns),
        the SNIC CPU sits next to the NIC (~300 ns)."""
        sim = Simulator()
        host_nic = RdmaNic(sim, 1, local_bus_latency_s=900e-9)
        snic_nic = RdmaNic(sim, 2, local_bus_latency_s=300e-9)
        peer = RdmaNic(sim, 3, local_bus_latency_s=300e-9)
        region = peer.register_memory(64)

        def run_read(nic):
            qp_a = QueuePair(sim, nic, peer)
            qp_b = QueuePair(sim, peer, nic)
            qp_a.connect(qp_b)
            times = []

            def reader():
                start = sim.now
                yield qp_a.read(region.key, 0, 8)
                times.append(sim.now - start)

            sim.process(reader())
            sim.run()
            return times[0]

        host_latency = run_read(host_nic)
        snic_latency = run_read(snic_nic)
        assert snic_latency < host_latency
