"""Tests for fabric ports, RED/ECN marking, and leaf-spine routing."""

import numpy as np
import pytest

from repro.cluster.fabric import LeafSpineFabric, RedConfig
from repro.cluster.topology import TopologySpec
from repro.cluster.fabric import FabricPort, flow_spine
from repro.core.engine import Simulator
from repro.netstack.packet import PROTO_TCP, Packet, ip


def make_packet(src=0, dst=1, sport=40_000, dport=5001, nbytes=1400,
                ect=True):
    packet = Packet(
        src_ip=ip(10, 0, src, 10), dst_ip=ip(10, 0, dst, 10),
        src_port=sport, dst_port=dport, proto=PROTO_TCP,
        payload=bytes(nbytes),
    )
    packet.ecn_capable = ect
    return packet


class TestRedConfig:
    def test_below_min_passes(self):
        red = RedConfig(min_bytes=1000, max_bytes=3000)
        assert red.decision(500, np.random.default_rng(0)) == "pass"

    def test_above_max_always_marks(self):
        red = RedConfig(min_bytes=1000, max_bytes=3000)
        for seed in range(5):
            assert red.decision(3000, np.random.default_rng(seed)) == "mark"

    def test_linear_region_marks_probabilistically(self):
        red = RedConfig(min_bytes=0, max_bytes=10_000, max_p=1.0)
        rng = np.random.default_rng(1)
        marks = sum(red.decision(5_000, rng) == "mark" for _ in range(2000))
        assert 0.4 < marks / 2000 < 0.6


class TestFabricPort:
    def test_marks_ect_packets_at_saturated_queue(self):
        sim = Simulator()
        port = FabricPort(sim, "p", gbps=1.0, propagation_s=0.0,
                          buffer_bytes=10**9,
                          red=RedConfig(0, 1, ecn=True),
                          rng=np.random.default_rng(0))
        got = []
        port.attach(got.append)
        first, second = make_packet(), make_packet()
        port.send(first)   # empty queue: below min_th at depth 0? min=0 -> mark region
        port.send(second)  # behind first: depth > max_th, must mark
        sim.run()
        assert second.ce
        assert port.marked >= 1
        assert len(got) == 2

    def test_drops_non_ect_instead_of_marking(self):
        sim = Simulator()
        port = FabricPort(sim, "p", gbps=1.0, propagation_s=0.0,
                          buffer_bytes=10**9,
                          red=RedConfig(0, 1, ecn=True),
                          rng=np.random.default_rng(0))
        got = []
        port.attach(got.append)
        port.send(make_packet(ect=False))
        port.send(make_packet(ect=False))
        sim.run()
        assert port.dropped >= 1
        assert len(got) < 2

    def test_tail_drop_over_buffer(self):
        sim = Simulator()
        port = FabricPort(sim, "p", gbps=0.001, propagation_s=0.0,
                          buffer_bytes=2000, red=None, rng=None)
        got = []
        port.attach(got.append)
        for _ in range(5):
            port.send(make_packet())
        sim.run()
        assert port.dropped >= 3
        assert port.enqueued + port.dropped == 5

    def test_red_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FabricPort(sim, "p", 1.0, 0.0, 1000, RedConfig(0, 1), None)


class TestFlowSpine:
    def test_deterministic_and_in_range(self):
        packet = make_packet()
        picks = {flow_spine(packet, 4) for _ in range(10)}
        assert len(picks) == 1
        assert picks.pop() in range(4)

    def test_different_flows_spread(self):
        spines = {
            flow_spine(make_packet(sport=40_000 + i), 4) for i in range(64)
        }
        assert len(spines) > 1


class TestLeafSpineFabric:
    def _build(self, topo):
        sim = Simulator()
        fabric = LeafSpineFabric(sim, topo, np.random.default_rng(0))
        inboxes = {n: [] for n in topo.node_ids()}
        for node in topo.node_ids():
            fabric.attach_node(node, inboxes[node].append)
        return sim, fabric, inboxes

    def test_intra_rack_delivery_skips_spine(self):
        topo = TopologySpec(racks=2, nodes_per_rack=2)
        sim, fabric, inboxes = self._build(topo)
        packet = make_packet()
        packet.src_ip, packet.dst_ip = topo.address_of(0), topo.address_of(1)
        fabric.egress_link(0).send(packet)
        sim.run()
        assert len(inboxes[1]) == 1
        assert all(p.enqueued == 0 for p in fabric.leaf_up.values())

    def test_inter_rack_delivery_crosses_one_spine(self):
        topo = TopologySpec(racks=2, nodes_per_rack=2, spines=2)
        sim, fabric, inboxes = self._build(topo)
        packet = make_packet()
        packet.src_ip, packet.dst_ip = topo.address_of(0), topo.address_of(3)
        fabric.egress_link(0).send(packet)
        sim.run()
        assert len(inboxes[3]) == 1
        crossed = sum(p.enqueued for p in fabric.leaf_up.values())
        assert crossed == 1

    def test_unknown_address_rejected(self):
        topo = TopologySpec(racks=1, nodes_per_rack=2, spines=1)
        sim, fabric, _ = self._build(topo)
        packet = make_packet()
        packet.dst_ip = ip(192, 168, 0, 1)
        fabric.egress_link(0).send(packet)
        with pytest.raises(ValueError):
            sim.run()

    def test_fabricless_topology_rejected(self):
        from repro.cluster.topology import single_node_spec

        with pytest.raises(ValueError):
            LeafSpineFabric(Simulator(), single_node_spec(),
                            np.random.default_rng(0))
