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
    def test_100gbps_is_12_5_gigabytes(self):
        assert units.gbps_to_bytes_per_second(100.0) == pytest.approx(12.5e9)
