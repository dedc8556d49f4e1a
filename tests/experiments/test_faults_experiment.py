"""Tests for the availability-under-faults experiment."""

import numpy as np
import pytest

from repro.core.cache import ResultCache, configure, get_cache
from repro.core.executor import ParallelExecutor
from repro.core.rng import RandomStreams
from repro.experiments.faults import (
    ALL_SCENARIOS,
    FaultStudyResult,
    format_faults,
    run_faults_study,
    scenario_specs,
)
from repro.experiments.fig4 import snic_platform_for
from repro.experiments.measurement import measure_operating_point
from repro.experiments.profiles import get_profile
from repro.obs import metrics
from repro.offload.loadbalancer import M_SCALAR_PACKETS

SAMPLES = 40
REQUESTS = 2_000
PACKETS = 8_000


@pytest.fixture(scope="module")
def study() -> FaultStudyResult:
    return run_faults_study(
        functions=("redis:a", "compression:app"),
        samples=SAMPLES,
        n_requests=REQUESTS,
        n_packets=PACKETS,
        streams=RandomStreams(2023),
    )


class TestScenarioSpecs:
    def test_all_scenarios_materialize(self):
        for name in ALL_SCENARIOS:
            specs = scenario_specs(name, horizon_s=1.0)
            assert specs and specs[0].name == name

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            scenario_specs("meteor-strike", 1.0)


class TestStudy:
    def test_every_function_runs_every_scenario(self, study):
        for report in study.reports:
            names = [s.scenario for s in report.scenarios]
            assert names == ["no-fault", *ALL_SCENARIOS]

    def test_deterministic_across_runs(self, study):
        again = run_faults_study(
            functions=("redis:a", "compression:app"),
            samples=SAMPLES,
            n_requests=REQUESTS,
            n_packets=PACKETS,
            streams=RandomStreams(2023),
        )
        for first, second in zip(study.reports, again.reports):
            for a, b in zip(first.scenarios, second.scenarios):
                assert a.availability == b.availability
                assert a.p99_s == b.p99_s
                assert a.p999_s == b.p999_s
                assert a.dropped == b.dropped
                assert a.recovery_s == b.recovery_s or (
                    np.isnan(a.recovery_s) and np.isnan(b.recovery_s)
                )

    def test_baseline_reproduces_fig4_operating_point(self, study):
        """The no-fault baseline must be the existing Fig. 4 measurement,
        bit-identical: same streams, same procedure."""
        streams = RandomStreams(2023)
        for report in study.reports:
            profile = get_profile(report.function, samples=SAMPLES)
            host = measure_operating_point(profile, "host", streams, REQUESTS)
            snic = measure_operating_point(
                profile, snic_platform_for(profile), streams, REQUESTS
            )
            assert report.host.capacity_rps == host.capacity_rps
            assert report.snic.capacity_rps == snic.capacity_rps
            assert report.host.metrics.latency_p99 == host.metrics.latency_p99
            assert report.snic.metrics.latency_p99 == snic.metrics.latency_p99

    def test_no_fault_baseline_is_clean(self, study):
        for report in study.reports:
            base = report.scenarios[0]
            assert base.scenario == "no-fault"
            assert base.dropped == 0
            assert base.availability == 1.0
            assert base.host_share_fault == 0.0

    def test_outage_triggers_snic_to_host_failover(self, study):
        """Acceptance: host share rises during the outage, drops stay
        bounded (confined to the fault window), and the path fails back."""
        for report in study.reports:
            outage = next(s for s in report.scenarios
                          if s.scenario == "snic-outage")
            assert outage.host_share_fault > 0.90
            assert outage.host_share_steady < 0.10
            assert outage.drops_outside_fault_s == 0
            assert np.isfinite(outage.recovery_s)
            assert outage.recovery_s >= 0.0

    def test_throttle_inflates_p99_but_keeps_serving(self, study):
        for report in study.reports:
            throttle = next(s for s in report.scenarios
                            if s.scenario == "thermal-throttle")
            base = report.scenarios[0]
            assert throttle.p99_s > base.p99_s
            assert throttle.availability > 0.95

    def test_link_loss_healed_by_retries(self, study):
        for report in study.reports:
            link = next(s for s in report.scenarios
                        if s.scenario == "link-burst-loss")
            # Most packets survive via retries; the rest exhaust attempts.
            assert link.availability > 0.90
            assert link.dropped > 0
            assert link.p999_s >= link.p99_s

    def test_smoke_mode_shrinks_study(self):
        result = run_faults_study(streams=RandomStreams(1), smoke=True)
        assert {r.function for r in result.reports} == {"redis:a", "ovs:10"}

    def test_format_renders_all_cells(self, study):
        text = format_faults(study)
        for report in study.reports:
            assert report.function in text
        for scenario in ("no-fault", *ALL_SCENARIOS):
            assert scenario in text
        assert "avail" in text and "recover ms" in text


def test_scalar_packet_count_is_the_same_at_any_jobs(forked_workers):
    # The balancer's scalar-loop count is pinned for the default report;
    # counted in forked workers, it must merge to the serial run's value.
    counts = []
    previous = get_cache()
    try:
        for jobs in (1, 2):
            configure(ResultCache())  # cold: every unit runs its balancer
            before = metrics.snapshot()
            run_faults_study(functions=("redis:a", "compression:app"),
                             samples=SAMPLES, n_requests=REQUESTS,
                             n_packets=PACKETS, streams=RandomStreams(2023),
                             executor=ParallelExecutor(jobs))
            counts.append(metrics.counter_delta(metrics.delta_since(before),
                                                M_SCALAR_PACKETS))
    finally:
        configure(previous)
    assert counts[0] == counts[1] > 0
