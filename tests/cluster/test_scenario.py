"""End-to-end cluster scenarios: traffic mixes over the fabric DES."""

import pytest

from repro.cluster.scenario import run_scenario
from repro.cluster.topology import TopologySpec
from repro.cluster.traffic import MIX_KINDS, expand_mix
from repro.core.rng import RandomStreams

TOPO = TopologySpec(racks=2, nodes_per_rack=2, spines=2)
FLOW_BYTES = 65_536


def fresh_rng(seed=11, name="test"):
    return RandomStreams(seed).fresh(name)


class TestExpandMix:
    def test_incast_targets_node_zero(self):
        flows = expand_mix("incast", TOPO, FLOW_BYTES, fresh_rng())
        assert len(flows) == TOPO.n_nodes - 1
        assert all(f.dst == 0 and f.src != 0 for f in flows)

    def test_uniform_never_self_targets(self):
        flows = expand_mix("uniform", TOPO, FLOW_BYTES, fresh_rng(),
                           flows_per_node=8)
        assert len(flows) == TOPO.n_nodes * 8
        assert all(f.src != f.dst for f in flows)

    def test_skewed_never_self_targets(self):
        flows = expand_mix("skewed", TOPO, FLOW_BYTES, fresh_rng(),
                           flows_per_node=8)
        assert all(f.src != f.dst for f in flows)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            expand_mix("broadcast", TOPO, FLOW_BYTES, fresh_rng())

    def test_mix_kinds_cover_table(self):
        assert set(MIX_KINDS) == {"incast", "uniform", "skewed"}


class TestRunScenario:
    @pytest.fixture(scope="class")
    def incast(self):
        return run_scenario(TOPO, "incast", FLOW_BYTES, fresh_rng())

    def test_all_flows_complete(self, incast):
        assert incast.flows == TOPO.n_nodes - 1
        assert incast.completed == incast.flows

    def test_fcts_positive_and_ordered(self, incast):
        assert 0 < incast.fct_mean_s <= incast.fct_p99_s <= incast.fct_max_s

    def test_goodput_positive(self, incast):
        assert incast.goodput_gbps > 0
        assert incast.makespan_s > 0

    def test_incast_bottleneck_is_receiver_downlink(self, incast):
        assert incast.hot_ports[0].name == "leaf0->node0"

    def test_deterministic_replay(self, incast):
        again = run_scenario(TOPO, "incast", FLOW_BYTES, fresh_rng())
        assert again == incast

    def test_ecn_tames_incast_tail(self):
        """The headline: same buffers, marking vs drop-tail.  Drop-tail
        incast recovers by RTO (20 ms); ECN keeps flows out of timeout,
        cutting p99 FCT by an order of magnitude."""
        ecn = run_scenario(TOPO, "incast", FLOW_BYTES, fresh_rng(name="a"))
        droptail = run_scenario(
            TopologySpec(racks=2, nodes_per_rack=2, spines=2, ecn=False),
            "incast", FLOW_BYTES, fresh_rng(name="a"))
        assert ecn.ecn_marks_seen > 0
        assert ecn.ecn_responses > 0
        assert droptail.ecn_marks_seen == 0
        assert droptail.fct_p99_s > 5 * ecn.fct_p99_s

    def test_uniform_mix_completes(self):
        result = run_scenario(TOPO, "uniform", FLOW_BYTES, fresh_rng(),
                              flows_per_node=2)
        assert result.completed == result.flows == TOPO.n_nodes * 2
        assert result.packets_ingested > 0
