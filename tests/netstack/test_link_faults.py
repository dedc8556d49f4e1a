"""Tests for link fault models: closed-interval loss and bursty loss."""

import numpy as np
import pytest

from repro.core.engine import Simulator
from repro.netstack.link import GilbertElliottLoss, Link
from repro.netstack.packet import PROTO_UDP, Packet


def make_packet() -> Packet:
    return Packet(proto=PROTO_UDP, src_ip=1, src_port=1, dst_ip=2, dst_port=2,
                  payload=b"x" * 64)


class TestLossValidation:
    def test_full_loss_is_expressible(self):
        """Regression: loss_probability=1.0 used to be rejected, so a fully
        dead link could not be modeled."""
        sim = Simulator()
        link = Link(sim, loss_probability=1.0, rng=np.random.default_rng(0))
        link.attach(lambda p: pytest.fail("dead link delivered a packet"))
        for _ in range(50):
            link.send(make_packet())
        sim.run()
        assert link.lost == 50
        assert link.delivered == 0

    def test_out_of_range_still_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, loss_probability=1.5)
        with pytest.raises(ValueError):
            Link(sim, loss_probability=-0.1)


class TestGilbertElliott:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GilbertElliottLoss(p_good_to_bad=1.5, p_bad_to_good=0.1)

    def test_losses_cluster_into_bursts(self):
        """The point of the model: loss runs are much longer than i.i.d.
        Bernoulli at the same average loss rate would produce."""
        rng = np.random.default_rng(42)
        model = GilbertElliottLoss(p_good_to_bad=0.005, p_bad_to_good=0.05)
        outcomes = [model.lost(rng) for _ in range(50_000)]
        loss_rate = np.mean(outcomes)
        assert 0.02 < loss_rate < 0.25

        runs, current = [], 0
        for lost in outcomes:
            if lost:
                current += 1
            elif current:
                runs.append(current)
                current = 0
        # Mean burst length ~ 1/p_bad_to_good >> 1 (i.i.d. would be ~1).
        assert np.mean(runs) > 3.0

    def test_link_uses_loss_model(self):
        sim = Simulator()
        rng = np.random.default_rng(0)
        model = GilbertElliottLoss(p_good_to_bad=0.5, p_bad_to_good=0.1)
        link = Link(sim, rng=rng, loss_model=model)
        link.attach(lambda p: None)
        for _ in range(500):
            link.send(make_packet())
        sim.run()
        assert link.lost > 100
        assert link.delivered == 500 - link.lost

    def test_loss_model_requires_rng(self):
        sim = Simulator()
        model = GilbertElliottLoss(p_good_to_bad=0.1, p_bad_to_good=0.1)
        with pytest.raises(ValueError):
            Link(sim, loss_model=model)

