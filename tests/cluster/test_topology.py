"""Tests for the cluster topology description."""

import pytest

from repro.cluster.topology import TopologySpec, single_node_spec


class TestValidation:
    def test_defaults_are_valid(self):
        topo = TopologySpec()
        assert topo.n_nodes == 8
        assert not topo.is_single_node

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ValueError):
            TopologySpec(racks=0)
        with pytest.raises(ValueError):
            TopologySpec(nodes_per_rack=0)
        with pytest.raises(ValueError):
            TopologySpec(spines=0)

    def test_rejects_unknown_profile(self):
        with pytest.raises(ValueError):
            TopologySpec(node_profile="mystery-box")

    def test_fabricless_must_be_single_node(self):
        with pytest.raises(ValueError):
            TopologySpec(racks=2, nodes_per_rack=4, fabric=False)

    def test_rejects_invalid_red_thresholds(self):
        with pytest.raises(ValueError):
            TopologySpec(red_min_bytes=90_000, red_max_bytes=30_000)


class TestAddressing:
    def test_node_ids_and_rack_mapping(self):
        topo = TopologySpec(racks=2, nodes_per_rack=3)
        assert topo.node_ids() == tuple(range(6))
        assert [topo.rack_of(n) for n in topo.node_ids()] == [0, 0, 0, 1, 1, 1]
        assert [topo.slot_of(n) for n in topo.node_ids()] == [0, 1, 2, 0, 1, 2]

    def test_addresses_are_unique_and_invertible(self):
        topo = TopologySpec(racks=2, nodes_per_rack=4)
        addresses = [topo.address_of(n) for n in topo.node_ids()]
        assert len(set(addresses)) == topo.n_nodes


class TestTopologyId:
    def test_leafspine_id_encodes_shape_and_aqm(self):
        assert (TopologySpec(racks=2, nodes_per_rack=4, spines=2).topology_id()
                == "leafspine:r2xn4:s2:host+bf2:ecn")
        assert (TopologySpec(racks=2, nodes_per_rack=4, ecn=False)
                .topology_id().endswith(":droptail"))

    def test_single_node_spec_reduces(self):
        topo = single_node_spec()
        assert topo.is_single_node
        assert topo.n_nodes == 1
        assert topo.topology_id() == "single:host+bf2"
