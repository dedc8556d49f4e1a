"""Tests for correlated fault domains (rack / switch scope)."""

import pytest

from repro.cluster.topology import TopologySpec
from repro.core.rng import RandomStreams
from repro.faults.domains import (
    correlated,
    node_target,
    outage_windows,
    rack_outage,
    rack_targets,
)
from repro.faults.schedule import (
    FaultSpec,
    FaultTimeline,
    KIND_OUTAGE,
    MODE_STOCHASTIC,
    materialize,
)

TOPO = TopologySpec(racks=2, nodes_per_rack=4, spines=2)


class TestCorrelatedMaterialization:
    def test_shared_key_gives_identical_episodes(self):
        specs = correlated("rack0-power", ["node:0", "node:1", "node:2"],
                           mtbf_s=100.0, mttr_s=5.0)
        streams = RandomStreams(7)
        episodes = [materialize(s, 10_000.0, streams) for s in specs]
        assert episodes[0], "expected at least one episode over the horizon"
        assert episodes[0] == episodes[1] == episodes[2]

    def test_uncorrelated_specs_draw_independently(self):
        a = FaultSpec(name="a", target="node:0", mode=MODE_STOCHASTIC,
                      mtbf_s=100.0, mttr_s=5.0)
        b = FaultSpec(name="b", target="node:1", mode=MODE_STOCHASTIC,
                      mtbf_s=100.0, mttr_s=5.0)
        streams = RandomStreams(7)
        assert materialize(a, 10_000.0, streams) != materialize(
            b, 10_000.0, streams)

    def test_correlation_does_not_change_uncorrelated_draws(self):
        """Adding a correlated family must not perturb existing specs."""
        solo = FaultSpec(name="flaky", target="link", mode=MODE_STOCHASTIC,
                         mtbf_s=1.0, mttr_s=0.2)
        alone = materialize(solo, 50.0, RandomStreams(7))
        streams = RandomStreams(7)
        for spec in correlated("rack0", ["node:0", "node:1"],
                               mtbf_s=10.0, mttr_s=1.0):
            materialize(spec, 50.0, streams)
        assert materialize(solo, 50.0, streams) == alone

    def test_replays_across_registries(self):
        spec = correlated("ev", ["node:0"], mtbf_s=100.0, mttr_s=5.0)[0]
        assert materialize(spec, 5_000.0, RandomStreams(3)) == materialize(
            spec, 5_000.0, RandomStreams(3))

    def test_one_shot_family(self):
        specs = correlated("maint", ["node:0", "node:1"],
                           start_s=2.0, duration_s=1.0)
        for spec in specs:
            assert materialize(spec, 10.0) == [(2.0, 3.0)]

    def test_rejects_both_time_patterns(self):
        with pytest.raises(ValueError):
            correlated("x", ["node:0"], mtbf_s=1.0, mttr_s=1.0,
                       duration_s=2.0)

    def test_rejects_empty_targets(self):
        with pytest.raises(ValueError):
            correlated("x", [])


class TestScopeHelpers:
    def test_rack_targets(self):
        assert rack_targets(TOPO, 0) == ["node:0", "node:1", "node:2",
                                         "node:3"]
        assert rack_targets(TOPO, 1) == ["node:4", "node:5", "node:6",
                                         "node:7"]
        with pytest.raises(ValueError):
            rack_targets(TOPO, 2)

    def test_rack_outage_family(self):
        specs = rack_outage(TOPO, 1, mtbf_s=100.0, mttr_s=5.0)
        assert [s.target for s in specs] == rack_targets(TOPO, 1)
        assert all(s.correlation == "rack1-power" for s in specs)
        assert all(s.kind == KIND_OUTAGE for s in specs)
        names = [s.name for s in specs]
        assert len(set(names)) == len(names)

    def test_whole_rack_fails_in_lockstep(self):
        specs = rack_outage(TOPO, 0, mtbf_s=200.0, mttr_s=10.0)
        tl = FaultTimeline(specs, horizon_s=20_000.0,
                           streams=RandomStreams(11))
        per_node = [tl.episodes(s.name) for s in specs]
        assert per_node[0], "expected episodes over the horizon"
        assert all(eps == per_node[0] for eps in per_node[1:])


class TestOutageWindows:
    def test_windows_keyed_by_target(self):
        specs = rack_outage(TOPO, 0, start_s=1.0, duration_s=2.0)
        specs.append(FaultSpec.one_shot("spine0", "spine:0", 5.0, 1.0))
        windows = outage_windows(FaultTimeline(specs, horizon_s=10.0))
        assert windows[node_target(0)] == [(1.0, 3.0)]
        assert windows["spine:0"] == [(5.0, 6.0)]

    def test_non_outage_kinds_excluded(self):
        specs = [FaultSpec.one_shot("slow", "node:0", 1.0, 2.0,
                                    kind="degrade")]
        assert outage_windows(FaultTimeline(specs, horizon_s=10.0)) == {}

    def test_windows_sorted(self):
        specs = [
            FaultSpec.one_shot("late", "node:0", 5.0, 1.0),
            FaultSpec.one_shot("early", "node:0", 1.0, 1.0),
        ]
        windows = outage_windows(FaultTimeline(specs, horizon_s=10.0))
        assert windows["node:0"] == [(1.0, 2.0), (5.0, 6.0)]
