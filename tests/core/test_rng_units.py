"""Tests for random streams and unit conversions."""

import pytest

from repro.core.rng import RandomStreams
from repro.core import units


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(1)
        assert streams.stream("pktgen") is streams.stream("pktgen")

    def test_reproducible_across_instances(self):
        a = RandomStreams(42).stream("x").random(5)
        b = RandomStreams(42).stream("x").random(5)
        assert (a == b).all()

    def test_names_are_independent(self):
        streams = RandomStreams(42)
        a = streams.stream("a").random(5)
        b = streams.stream("b").random(5)
        assert not (a == b).all()

    def test_draw_order_isolation(self):
        """Drawing from one stream must not perturb another."""
        first = RandomStreams(7)
        first.stream("noise").random(100)
        a = first.stream("work").random(5)
        second = RandomStreams(7)
        b = second.stream("work").random(5)
        assert (a == b).all()

    def test_fork_changes_streams(self):
        base = RandomStreams(7)
        fork = base.fork(1)
        assert not (base.stream("x").random(5) == fork.stream("x").random(5)).all()

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("x").random(5)
        b = RandomStreams(2).stream("x").random(5)
        assert not (a == b).all()


class TestUnits:
    def test_time_helpers(self):
        assert units.microseconds(5) == pytest.approx(5e-6)
        assert units.nanoseconds(100) == pytest.approx(1e-7)
        assert units.milliseconds(2) == pytest.approx(2e-3)
        assert units.to_microseconds(1e-6) == pytest.approx(1.0)

    def test_gbps_round_trip(self):
        bps = units.gbps_to_bytes_per_second(100.0)
        assert units.bytes_per_second_to_gbps(bps) == pytest.approx(100.0)

    def test_100gbps_is_12_5_gigabytes(self):
        assert units.gbps_to_bytes_per_second(100.0) == pytest.approx(12.5e9)

    def test_packet_rate_1kb_at_100gbps(self):
        pps = units.packets_per_second(100.0, 1024)
        assert pps == pytest.approx(12.5e9 / 1024)

    def test_packet_rate_rejects_zero_size(self):
        with pytest.raises(ValueError):
            units.packets_per_second(10.0, 0)

    def test_line_rate_64b_at_100g_is_148_8mpps(self):
        """The canonical small-packet line-rate figure for 100 GbE."""
        pps = units.line_rate_pps(100.0, 64)
        assert pps == pytest.approx(148.8e6, rel=0.01)

    def test_line_rate_clamps_tiny_frames(self):
        assert units.line_rate_pps(100.0, 1) == units.line_rate_pps(100.0, 64)

    def test_kwh_conversion(self):
        assert units.joules_to_kwh(3.6e6) == pytest.approx(1.0)
