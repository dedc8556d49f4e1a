"""Tests for the measurement layer: fixed-rate runs, knees, power loads."""

import numpy as np
import pytest

from repro.calibration import LINE_RATE_GBPS
from repro.obs import metrics as obs_metrics
from repro.core.rng import RandomStreams
from repro.experiments.measurement import (
    ACCEL_PLATFORM,
    MeasurementError,
    component_load,
    cpu_service_seconds,
    estimate_capacity_rps,
    measure_operating_point,
    run_fixed_rate,
    sweep_operating_rate,
)
from repro.experiments.profiles import get_profile


@pytest.fixture
def streams():
    return RandomStreams(11)


class TestServiceTimes:
    def test_snic_kernel_service_slower(self):
        profile = get_profile("udp:64", samples=10)
        host = cpu_service_seconds(profile, "host").mean()
        snic = cpu_service_seconds(profile, "snic-cpu").mean()
        assert snic > 4 * host

    def test_local_function_has_no_stack_cost(self):
        profile = get_profile("crypto:aes", samples=10)
        services = cpu_service_seconds(profile, "host")
        # 512 AES blocks at 42 cycles / 2.1 GHz
        assert services.mean() == pytest.approx(512 * 42 / 2.1e9, rel=0.01)


class TestRunFixedRate:
    def test_light_load_sustained(self, streams):
        profile = get_profile("udp:64", samples=20)
        metrics = run_fixed_rate(profile, "host", 10_000.0, streams, 4000)
        assert metrics.sustained
        assert metrics.completed_rate == pytest.approx(10_000.0, rel=0.1)

    def test_overload_not_sustained(self, streams):
        profile = get_profile("udp:64", samples=20)
        metrics = run_fixed_rate(profile, "host", 5e6, streams, 4000)
        assert not metrics.sustained

    def test_latency_grows_with_load(self, streams):
        profile = get_profile("redis:a", samples=50)
        light = run_fixed_rate(profile, "host", 20_000.0, streams, 6000)
        heavy = run_fixed_rate(profile, "host", 380_000.0, streams, 6000)
        assert heavy.latency_p99 > light.latency_p99

    def test_unknown_platform_rejected(self, streams):
        profile = get_profile("udp:64", samples=10)
        with pytest.raises(MeasurementError):
            run_fixed_rate(profile, "gpu", 100.0, streams, 100)

    def test_platform_not_in_profile_rejected(self, streams):
        profile = get_profile("rem:file_image", samples=30)
        with pytest.raises(MeasurementError):
            run_fixed_rate(profile, "snic-cpu", 100.0, streams, 100)

    def test_accel_path_requires_engine(self, streams):
        profile = get_profile("redis:a", samples=20)
        with pytest.raises(MeasurementError):
            run_fixed_rate(profile, ACCEL_PLATFORM, 100.0, streams, 100)

    def test_nic_line_rate_clips(self, streams):
        """No networked function can exceed 100 Gb/s of wire traffic."""
        profile = get_profile("dpdk:1024", samples=10)
        metrics = run_fixed_rate(profile, "host", 3e7, streams, 6000)
        assert metrics.goodput_gbps <= LINE_RATE_GBPS * 1.02

    def test_deterministic_given_streams(self):
        profile = get_profile("udp:64", samples=20)
        a = run_fixed_rate(profile, "host", 50_000.0, RandomStreams(5), 4000)
        b = run_fixed_rate(profile, "host", 50_000.0, RandomStreams(5), 4000)
        assert a.latency_p99 == b.latency_p99
        assert a.completed_rate == b.completed_rate


class TestCapacityEstimates:
    def test_estimate_close_to_measured_knee(self, streams):
        profile = get_profile("redis:a", samples=50)
        estimate = estimate_capacity_rps(profile, "host")
        point = measure_operating_point(profile, "host", streams, 6000)
        assert point.capacity_rps == pytest.approx(estimate, rel=0.35)

    def test_accel_estimate_includes_batching(self):
        profile = get_profile("compression:txt", samples=8)
        estimate = estimate_capacity_rps(profile, ACCEL_PLATFORM)
        assert estimate > 0


class TestOperatingPoint:
    def test_power_fields_consistent(self, streams):
        profile = get_profile("udp:64", samples=20)
        point = measure_operating_point(profile, "host", streams, 4000)
        assert point.server_power_w >= 252.0
        assert point.device_power_w == pytest.approx(29.0)  # SNIC idles

    def test_snic_processing_heats_snic_only(self, streams):
        profile = get_profile("udp:64", samples=20)
        point = measure_operating_point(profile, "snic-cpu", streams, 4000)
        assert point.device_power_w > 29.0
        assert point.load.host_busy_cores == 0.0

    def test_accel_point_engages_engine(self, streams):
        profile = get_profile("rem:file_executable", samples=40)
        point = measure_operating_point(profile, ACCEL_PLATFORM, streams, 4000)
        assert "rem" in point.load.accel_engaged
        assert point.load.accel_utilization["rem"] > 0.3

    def test_load_fraction_override_respected(self, streams):
        profile = get_profile("ovs:10", samples=100)
        point = measure_operating_point(profile, "host", streams, 4000)
        # 10 % of line rate at MTU ~ 0.8 Mpps, far below capacity
        assert point.metrics.offered_rate < 0.2 * point.capacity_rps / 0.1


class TestComponentLoad:
    def test_dpdk_spin_floor(self):
        """Poll-mode cores burn power even at near-zero load (Table 4)."""
        profile = get_profile("rem:file_executable", samples=40)
        load = component_load(profile, "host", completed_rate=100.0)
        assert load.host_busy_cores >= 8 * 0.25 * 0.99

    def test_kernel_stack_no_spin(self):
        profile = get_profile("udp:64", samples=20)
        load = component_load(profile, "host", completed_rate=100.0)
        assert load.host_busy_cores < 0.5

    def test_utilization_capped(self):
        profile = get_profile("udp:64", samples=20)
        load = component_load(profile, "host", completed_rate=1e12)
        assert load.host_busy_cores <= 8.0


class TestSweepOperatingRate:
    """Warm-started adaptive sweeps vs the cold search, end to end."""

    # fig4 smoke set: kernel-stack + DPDK at 64B, on host and SNIC CPU.
    CASES = [("udp:64", "host"), ("udp:64", "snic-cpu"),
             ("dpdk:64", "host"), ("dpdk:64", "snic-cpu")]
    # Probe noise at the saturation knee shrinks with run length;
    # 50k requests keeps warm/cold divergence deterministically under
    # the sweep's own 2% bisection tolerance.
    N_REQUESTS = 50_000

    @pytest.mark.parametrize("key,platform", CASES)
    def test_warm_matches_cold_with_fewer_probes(self, key, platform):
        profile = get_profile(key, samples=60)
        warm = sweep_operating_rate(
            profile, platform, RandomStreams(1), n_requests=self.N_REQUESTS,
            warm=True)
        cold = sweep_operating_rate(
            profile, platform, RandomStreams(1), n_requests=self.N_REQUESTS,
            warm=False)
        assert any(m.sustained for m in warm.probes)
        assert any(m.sustained for m in cold.probes)
        rel = abs(warm.max_rate - cold.max_rate) / cold.max_rate
        assert rel <= 0.02
        assert len(warm.probes) < len(cold.probes)

    def test_warm_sweep_credits_saved_probes(self):
        profile = get_profile("udp:64", samples=60)
        before = obs_metrics.counter(obs_metrics.PROBES_SAVED).value
        sweep_operating_rate(profile, "host", RandomStreams(1),
                             n_requests=self.N_REQUESTS, warm=True)
        assert obs_metrics.counter(obs_metrics.PROBES_SAVED).value > before
