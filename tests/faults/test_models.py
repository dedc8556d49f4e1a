"""Tests for the SNIC-path health view of a fault timeline."""

import numpy as np

from repro.core.rng import RandomStreams
from repro.faults.models import SnicHealth
from repro.faults.schedule import MODE_STOCHASTIC, FaultSpec, FaultTimeline


class TestSnicHealth:
    def test_timestamp_queries(self):
        specs = [
            FaultSpec.one_shot("out", "snic", 1.0, 1.0, kind="outage"),
            FaultSpec.one_shot("hot", "snic", 3.0, 1.0, kind="degrade",
                               severity=3.0),
        ]
        health = SnicHealth(FaultTimeline(specs, horizon_s=10.0), target="snic")
        available, factor, until = health.service_profile([0.5, 1.5, 3.5])
        # degraded at 3.5, not down
        assert available.tolist() == [True, False, True]
        assert factor[[0, 2]].tolist() == [1.0, 3.0]
        assert until.tolist() == [0.5, 2.0, 3.5]
        assert health.outage_windows() == [(1.0, 2.0)]

    def test_deterministic_masks(self):
        streams = RandomStreams(11)
        specs = [FaultSpec(name="flaky", target="snic", mode=MODE_STOCHASTIC,
                           mtbf_s=0.1, mttr_s=0.02)]
        a = FaultTimeline(specs, 5.0, RandomStreams(11))
        b = FaultTimeline(specs, 5.0, streams)
        times = np.linspace(0, 5, 1000)
        assert (a.active_mask(times, "snic") == b.active_mask(times, "snic")).all()
