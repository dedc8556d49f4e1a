"""Tests for power models, sensors, and energy accounting."""

import numpy as np
import pytest

from repro.calibration import POWER
from repro.core.engine import Simulator
from repro.power import (
    IDLE,
    BmcSensor,
    ComponentLoad,
    EnergyReport,
    PowerTrace,
    RiserCardSetup,
    ServerPowerModel,
    SnicPowerModel,
    YoctoWattSensor,
    efficiency_ratio,
    energy_per_request,
    validate_isolation,
)


class TestComponentLoad:
    def test_validation(self):
        with pytest.raises(ValueError):
            ComponentLoad(host_busy_cores=-1)
        with pytest.raises(ValueError):
            ComponentLoad(accel_utilization={"rem": 1.5})

    def test_idle_constant(self):
        assert IDLE.host_busy_cores == 0.0


class TestServerPowerModel:
    def test_idle_is_252(self):
        assert ServerPowerModel().power(IDLE) == pytest.approx(252.0)

    def test_nic_server_idle_lower(self):
        """Swapping the SNIC (29 W) for a plain NIC (16 W) drops idle."""
        nic_model = ServerPowerModel(has_snic=False)
        assert nic_model.power(IDLE) == pytest.approx(252.0 - 29.0 + 16.0)

    def test_host_cores_add_power(self):
        model = ServerPowerModel()
        full = model.power(ComponentLoad(host_busy_cores=8))
        assert 330 <= full <= 252 + 151  # within the paper's active ceiling

    def test_power_monotone_in_cores(self):
        model = ServerPowerModel()
        powers = [model.power(ComponentLoad(host_busy_cores=c)) for c in range(9)]
        assert powers == sorted(powers)

    def test_ondemand_parking_saves(self):
        model = ServerPowerModel()
        parked = model.power(ComponentLoad(host_parked=True))
        assert parked == pytest.approx(252.0 - POWER.host_ondemand_savings_w)

    def test_snic_activity_visible_in_server_power(self):
        model = ServerPowerModel()
        busy = model.power(ComponentLoad(snic_busy_cores=8))
        assert busy == pytest.approx(252.0 + 8 * POWER.snic_core_active_w)


class TestSnicPowerModel:
    def test_idle_is_29(self):
        assert SnicPowerModel().power(IDLE) == pytest.approx(29.0)

    def test_active_ceiling_respects_paper(self):
        """§4: the SNIC consumes at most ~5.4 W above idle."""
        load = ComponentLoad(
            snic_busy_cores=8,
            accel_utilization={"rem": 1.0},
            accel_engaged=frozenset({"rem"}),
        )
        active = SnicPowerModel().active_power(load)
        assert 5.0 <= active <= 8.0

    def test_engaged_engine_draws_static_power(self):
        model = SnicPowerModel()
        engaged = model.power(ComponentLoad(accel_engaged=frozenset({"rem"})))
        assert engaged > 29.0


class TestSensors:
    def test_bmc_characteristics(self):
        sensor = BmcSensor()
        assert sensor.sample_hz == 1.0
        assert sensor.resolution_w == 1.0

    def test_bmc_quantizes_to_watts(self):
        sensor = BmcSensor()  # no rng -> no accuracy noise
        assert sensor.reading(252.4) == 252.0
        assert sensor.reading(252.6) == 253.0

    def test_yocto_resolution(self):
        sensor = YoctoWattSensor("12V")
        assert sensor.reading(1.2345) == pytest.approx(1.234, abs=1e-9)

    def test_sampling_rate_on_kernel(self):
        sim = Simulator()
        trace = BmcSensor().attach(sim, lambda t: 252.0, duration=10.0)
        sim.run(until=10.0)
        assert 9 <= len(trace) <= 11

    def test_yocto_samples_10x_faster(self):
        sim = Simulator()
        bmc = BmcSensor().attach(sim, lambda t: 252.0, duration=5.0)
        yocto = YoctoWattSensor("12V").attach(sim, lambda t: 5.0, duration=5.0)
        sim.run(until=5.0)
        assert len(yocto) == pytest.approx(10 * len(bmc), abs=5)

    def test_riser_card_recovers_device_power(self):
        sim = Simulator()
        rig = RiserCardSetup()
        rail_12v, rail_3v3 = rig.attach(sim, lambda t: 31.5, duration=20.0)
        sim.run(until=20.0)
        assert rig.device_power(rail_12v, rail_3v3) == pytest.approx(31.5, abs=0.01)

    def test_sensor_tracks_power_step(self):
        sim = Simulator()
        step_fn = lambda t: 252.0 if t < 5.0 else 360.0
        trace = BmcSensor().attach(sim, step_fn, duration=10.0)
        sim.run(until=10.0)
        assert min(trace.watts) == pytest.approx(252.0, abs=1.5)
        assert max(trace.watts) == pytest.approx(360.0, abs=1.5)

    def test_trace_energy(self):
        trace = PowerTrace()
        for t in range(11):
            trace.append(float(t), 100.0)
        assert trace.energy_joules() == pytest.approx(1000.0)

    def test_validate_isolation(self):
        """The paper's cross-check: (with SNIC) - (without) ~= riser value."""
        assert validate_isolation(252.0, 223.0, 29.5)
        assert not validate_isolation(252.0, 223.0, 40.0)

    def test_sensor_validation(self):
        with pytest.raises(ValueError):
            BmcSensor.__bases__[0](sample_hz=0, accuracy_w=1, resolution_w=1)


class TestEnergy:
    def test_efficiency(self):
        report = EnergyReport("x", throughput=50.0, total_power_w=250.0)
        assert report.efficiency == pytest.approx(0.2)

    def test_efficiency_ratio(self):
        host = EnergyReport("h", 10.0, 360.0)
        snic = EnergyReport("s", 35.0, 255.0)
        assert efficiency_ratio(snic, host) == pytest.approx((35 / 255) / (10 / 360))

    def test_energy_per_request(self):
        report = EnergyReport("x", throughput=1000.0, total_power_w=250.0)
        assert energy_per_request(report) == pytest.approx(0.25)

    def test_zero_throughput(self):
        report = EnergyReport("x", throughput=0.0, total_power_w=250.0)
        assert energy_per_request(report) == float("inf")
