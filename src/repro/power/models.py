"""Component power models for the server and the SNIC (§3.2, Fig. 6).

The model is deliberately simple — idle floors plus activity-proportional
terms — because that is exactly the structure the paper's measurements
reveal: a 252 W idle server, a 29 W idle SNIC, up to ~150 W of host
active power and up to ~5.4 W of SNIC active power.  Key Observation 5
(energy efficiency is dominated by throughput because idle power
dominates) is a direct consequence of these magnitudes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from ..calibration import POWER, PowerCalibration


@dataclass(frozen=True)
class ComponentLoad:
    """A utilization snapshot of the server while running a function."""

    host_busy_cores: float = 0.0  # average number of busy host cores
    snic_busy_cores: float = 0.0  # average number of busy SNIC Arm cores
    accel_utilization: Mapping[str, float] = field(default_factory=dict)
    # engines that are programmed (rules loaded) and drawing static power
    accel_engaged: frozenset = frozenset()
    # ondemand governor parks the host while the SNIC serves (§3.1)
    host_parked: bool = False

    def __post_init__(self):
        if self.host_busy_cores < 0 or self.snic_busy_cores < 0:
            raise ValueError("negative core counts")
        for name, utilization in self.accel_utilization.items():
            if not 0.0 <= utilization <= 1.0:
                raise ValueError(f"accelerator utilization out of range: {name}")


IDLE = ComponentLoad()


class SnicPowerModel:
    """Power of the SmartNIC alone (what the riser-card setup measures)."""

    def __init__(self, calibration: PowerCalibration = POWER):
        self.calibration = calibration

    def power(self, load: ComponentLoad) -> float:
        watts = self.calibration.snic_idle_w
        watts += load.snic_busy_cores * self.calibration.snic_core_active_w
        for name in load.accel_engaged:
            watts += self.calibration.snic_accel_engaged_w.get(name, 0.0)
        for name, utilization in load.accel_utilization.items():
            engine_watts = self.calibration.snic_accel_active_w.get(name, 0.0)
            watts += engine_watts * utilization
        return watts

    def active_power(self, load: ComponentLoad) -> float:
        return self.power(load) - self.calibration.snic_idle_w


class ServerPowerModel:
    """System-wide wall power (what the BMC/DCMI sensor measures).

    ``has_snic`` distinguishes the SNIC server from the comparable
    standard-NIC server of the TCO analysis (§5.2).
    """

    def __init__(self, calibration: PowerCalibration = POWER, has_snic: bool = True):
        self.calibration = calibration
        self.has_snic = has_snic
        self.snic = SnicPowerModel(calibration) if has_snic else None

    @property
    def idle_power(self) -> float:
        base = self.calibration.server_idle_w
        if not self.has_snic:
            # swap the idle SNIC for the idle standard NIC
            base = base - self.calibration.snic_idle_w + self.calibration.nic_idle_w
        return base

    def power(self, load: ComponentLoad) -> float:
        watts = self.idle_power
        if load.host_busy_cores > 0:
            host_cores = min(load.host_busy_cores, 18.0)
            watts += host_cores * self.calibration.host_core_active_w
            watts += self.calibration.host_platform_active_w * min(
                host_cores / 8.0, 1.0
            )
        elif load.host_parked:
            watts -= self.calibration.host_ondemand_savings_w
        if self.snic is not None:
            watts += self.snic.active_power(load)
        return watts
