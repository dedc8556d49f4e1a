"""Tests for the packet-accurate testbed (eSwitch, PCIe, server assembly)."""

import numpy as np
import pytest

from repro.core import Simulator
from repro.hardware.specs import BLUEFIELD2
from repro.netstack.packet import PROTO_UDP, Packet
from repro.testbed import (
    CONSUME,
    Destination,
    ESwitch,
    OperationMode,
    PcieLink,
    SnicServer,
    consume_all,
    forward_all,
    reply_all,
    run_udp_echo_measurement,
)
from repro.workloads import pktgen


def make_packet(dst_ip=2, payload=b"x" * 64, packet_id=1):
    return Packet(proto=PROTO_UDP, src_ip=1, src_port=9000, dst_ip=dst_ip,
                  dst_port=53, payload=payload, packet_id=packet_id)


class TestPcieLink:
    def test_doorbell_latency_only(self):
        sim = Simulator()
        link = PcieLink(sim, BLUEFIELD2.pcie)
        times = []
        link.doorbell().add_callback(lambda e: times.append(sim.now))
        sim.run()
        assert times[0] == pytest.approx(BLUEFIELD2.pcie.transaction_latency_s)

    def test_transfer_adds_serialization(self):
        sim = Simulator()
        link = PcieLink(sim, BLUEFIELD2.pcie)
        times = []
        link.transfer(1 << 20).add_callback(lambda e: times.append(sim.now))
        sim.run()
        expected = (1 << 20) / link.bytes_per_second + BLUEFIELD2.pcie.transaction_latency_s
        assert times[0] == pytest.approx(expected)

    def test_fifo_serialization(self):
        sim = Simulator()
        link = PcieLink(sim, BLUEFIELD2.pcie)
        times = []
        link.transfer(1 << 20).add_callback(lambda e: times.append(("a", sim.now)))
        link.transfer(1 << 20).add_callback(lambda e: times.append(("b", sim.now)))
        sim.run()
        assert times[1][1] > times[0][1]

    def test_negative_size_rejected(self):
        sim = Simulator()
        link = PcieLink(sim, BLUEFIELD2.pcie)
        with pytest.raises(ValueError):
            link.transfer(-1)

    def test_utilization_accounting(self):
        sim = Simulator()
        link = PcieLink(sim, BLUEFIELD2.pcie)
        link.transfer(1 << 26)
        sim.run()
        assert 0.0 < link.utilization() <= 1.0


class TestESwitch:
    def test_on_path_steers_everything_to_snic(self):
        sim = Simulator()
        switch = ESwitch(sim, mode=OperationMode.ON_PATH)
        seen = {"snic": 0, "host": 0}
        switch.attach(Destination.SNIC_CPU, lambda p: seen.__setitem__("snic", seen["snic"] + 1))
        switch.attach(Destination.HOST, lambda p: seen.__setitem__("host", seen["host"] + 1))
        for dst in (2, 3, 4):
            switch.ingress(make_packet(dst_ip=dst))
        sim.run()
        assert seen == {"snic": 3, "host": 0}

    def test_off_path_steers_by_address(self):
        sim = Simulator()
        switch = ESwitch(sim, mode=OperationMode.OFF_PATH)
        seen = {"snic": [], "host": []}
        switch.attach(Destination.SNIC_CPU, lambda p: seen["snic"].append(p.dst_ip))
        switch.attach(Destination.HOST, lambda p: seen["host"].append(p.dst_ip))
        switch.map_address(7, Destination.SNIC_CPU)
        switch.ingress(make_packet(dst_ip=7))
        switch.ingress(make_packet(dst_ip=8))  # unmapped -> host
        sim.run()
        assert seen["snic"] == [7]
        assert seen["host"] == [8]

    def test_wire_mapping_rejected(self):
        sim = Simulator()
        switch = ESwitch(sim)
        with pytest.raises(ValueError):
            switch.map_address(1, Destination.WIRE)

    def test_unattached_destination_drops(self):
        sim = Simulator()
        switch = ESwitch(sim)
        switch.ingress(make_packet())
        sim.run()
        assert switch.dropped_no_receiver == 1

    def test_forwarding_latency(self):
        sim = Simulator()
        switch = ESwitch(sim, forwarding_latency_s=300e-9)
        arrivals = []
        switch.attach(Destination.SNIC_CPU, lambda p: arrivals.append(sim.now))
        switch.ingress(make_packet())
        sim.run()
        wire_time = 106 / switch.bytes_per_second
        assert arrivals[0] == pytest.approx(300e-9 + wire_time)


def _drive_echo(sim, server, count):
    """Echo requests 10 us apart over the wire, answered by the host."""
    run_udp_echo_measurement(sim, server, "host", count, 10e-6)


def _drive_pktgen(sim, server, count):
    """A paced ``workloads.pktgen`` stream, 10 us apart, into the eSwitch."""
    sample = pktgen.constant_size_stream(1e5, 64, count,
                                         np.random.default_rng(0),
                                         poisson=False)

    def replay():
        for index, (at, size) in enumerate(zip(sample.arrivals,
                                               sample.sizes)):
            yield sim.timeout(at - sim.now)
            server.receive(make_packet(payload=b"x" * int(size),
                                       packet_id=index + 1))

    sim.process(replay())


class TestSnicServer:
    def test_snic_echo_round_trip(self):
        sim = Simulator()
        server = SnicServer(sim, reply_all, consume_all)
        measurement = run_udp_echo_measurement(sim, server, "snic", 50, 20e-6)
        sim.run()
        assert measurement.latencies.count == 50
        assert 2e-6 < measurement.latencies.mean() < 20e-6

    def test_host_path_slower_than_snic_path(self):
        """On-path delivery to the host pays PCIe twice per RTT."""

        def measure(serve_on):
            sim = Simulator()
            server = SnicServer(sim, consume_all, consume_all,
                                snic_service_s=1e-6, host_service_s=1e-6)
            measurement = run_udp_echo_measurement(sim, server, serve_on, 200, 20e-6)
            sim.run()
            return measurement.latencies.mean()

        assert measure("host") > measure("snic")

    @pytest.mark.parametrize("drive", [_drive_echo, _drive_pktgen],
                             ids=["echo", "pktgen"])
    def test_forwarding_counts(self, drive):
        """30 packets 10 us apart offer ten times what one 100 us SNIC
        core serves: its queue backs up, then drains with every packet
        carried across the eSwitch, the SNIC and PCIe to the host."""
        sim = Simulator()
        server = SnicServer(sim, forward_all, reply_all,
                            snic_service_s=100e-6, snic_cores=1)
        drive(sim, server, 30)
        sim.run(until=1e-3)
        assert server.snic.cores.queue_length > 0
        assert server.snic.stats.handled < 30
        sim.run()
        assert server.snic.stats.handled == 30
        assert server.snic.stats.forwarded == 30
        assert server.eswitch.forwarded >= 30
        assert server.host.stats.replied == 30
        assert server.pcie_to_host.transactions == 30

    def test_snic_core_contention_queues(self):
        """One slow SNIC core: back-to-back packets see queueing delay."""
        sim = Simulator()
        server = SnicServer(sim, reply_all, consume_all,
                            snic_service_s=50e-6, snic_cores=1)
        measurement = run_udp_echo_measurement(sim, server, "snic", 20, 1e-6)
        sim.run()
        assert measurement.latencies.max() > 10 * measurement.latencies.percentile(1)

    def test_invalid_serve_on(self):
        sim = Simulator()
        server = SnicServer(sim, reply_all, consume_all)
        with pytest.raises(ValueError):
            run_udp_echo_measurement(sim, server, "accelerator", 1, 1e-6)


class TestCrossValidation:
    def test_testbed_latency_consistent_with_calibrated_base_rtt(self):
        """The packet-accurate testbed's low-load RTT must land within the
        same order as the fast path's DPDK latency floor — the two models
        describe one machine."""
        from repro.calibration import PLATFORMS

        sim = Simulator()
        snic_service = PLATFORMS["snic-cpu"].stack_seconds("dpdk", 64)
        server = SnicServer(sim, consume_all, consume_all,
                            snic_service_s=snic_service)
        measurement = run_udp_echo_measurement(
            sim, server, "snic", 300, 50e-6, wire_latency_s=1e-6
        )
        sim.run()
        fast_path_floor = PLATFORMS["snic-cpu"].stacks["dpdk"].base_rtt_mean_s
        assert 0.5 * fast_path_floor < measurement.latencies.mean() < 3 * fast_path_floor
