"""The registered ``cluster`` verb: registry walk, jobs-identity, JSON."""

import pytest

from repro.analysis.export import validate_artifact
from repro.core.executor import ParallelExecutor
from repro.core.rng import RandomStreams
from repro.experiments import registry
from repro.experiments.cluster import (
    SMOKE_SCENARIOS,
    cluster_json,
    format_cluster,
    run_cluster_study,
)
from repro.obs import metrics

SMOKE_KW = dict(scenarios=SMOKE_SCENARIOS, flow_bytes=65_536,
                samples=40, n_packets=2_500)


@pytest.fixture(scope="module")
def study():
    return run_cluster_study(streams=RandomStreams(2023), **SMOKE_KW)


class TestRegistry:
    def test_cluster_is_registered(self):
        assert "cluster" in registry.names()
        spec = registry.get("cluster")
        assert set(spec.tiers) == {"default", "smoke"}

    def test_smoke_tier_runs_through_context(self):
        ctx = registry.ExperimentContext(
            streams=RandomStreams(2023), tier=registry.SMOKE_TIER)
        result = ctx.run("cluster")
        labels = [label for label, _ in result.scenarios]
        assert labels == list(SMOKE_SCENARIOS)
        assert result.n_nodes == 8
        incast = dict(result.scenarios)["incast-ecn"]
        assert incast.completed == incast.flows
        assert incast.ecn_marks_seen > 0


class TestStudy:
    def test_ecn_beats_droptail(self, study):
        by_label = dict(study.scenarios)
        assert (by_label["incast-droptail"].fct_p99_s
                > 5 * by_label["incast-ecn"].fct_p99_s)

    def test_fleet_covers_all_node_profiles(self, study):
        for placement in study.fleet:
            assert set(placement.options) == {"host+bf2", "host-only",
                                              "all-snic"}
            assert placement.chosen in placement.options

    def test_accel_function_prefers_headless_snic(self, study):
        by_key = {p.profile_key: p for p in study.fleet}
        assert by_key["rem:file_image"].chosen == "all-snic"

    def test_rack_outage_study_present(self, study):
        outage = study.outage
        assert outage.rack_nodes == 4
        assert 0.5 <= outage.outcome.availability <= 1.0
        assert outage.outage_end_s > outage.outage_start_s

    def test_formatter_renders(self, study):
        text = format_cluster(study)
        assert "incast-ecn" in text
        assert "fleet placement" in text
        assert "rack-outage failover" in text


class TestJobsIdentity:
    def test_metrics_and_results_identical_at_any_jobs(self, forked_workers):
        """Per-port fabric counters merge byte-identically at --jobs N
        (worker deltas merged in submission order)."""

        def run(jobs):
            before = metrics.snapshot()
            study = run_cluster_study(streams=RandomStreams(2023),
                                      executor=ParallelExecutor(jobs),
                                      **SMOKE_KW)
            delta = metrics.delta_since(before)
            fabric = {name: value
                      for name, value in delta.get("counters", {}).items()
                      if name.startswith("fabric.")}
            return study, fabric

        serial_study, serial_fabric = run(1)
        parallel_study, parallel_fabric = run(2)
        assert serial_fabric[
            "fabric.port.enqueued"] > 0
        assert parallel_fabric == serial_fabric
        assert format_cluster(parallel_study) == format_cluster(serial_study)


class TestJsonArtifact:
    def test_json_matches_schema(self, study):
        doc = cluster_json(study)
        errors = validate_artifact(doc, registry.get("cluster").schema)
        assert errors == []

    def test_json_carries_fabric_accounting(self, study):
        doc = cluster_json(study)
        incast = doc["scenarios"][0]
        assert incast["label"] == "incast-ecn"
        assert incast["fabric_marked"] > 0
        assert doc["rack_outage"]["offered"] == 2_500
