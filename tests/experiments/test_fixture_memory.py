"""Memory budgets for the fixture builders' device buffers and the
all-simulated rate ladders.

A simulated device or log allocates what is written to it, not its
nominal capacity (DESIGN.md §9).  Budgets are traced Python allocations
(``tracemalloc``), not resident memory, so they hold on any host.  Only
the builders with big buffers are traced: tracing slows a build ~3x.

A ``--engine sim`` Fig. 5 curve (15 rungs) stacks its rungs a few at a
time, each pass converted before the next is built, and a knee descends
its 12-rung ladder one rung a pass, keeping only the verdict records of
the rungs it ran (DESIGN.md §14).  A kernel pass holding every rung at
once peaks at about 9.7 MB on the knee and 8.1 MB on the curve, and a
knee that runs all 12 rungs six a pass peaks at 6.9 MB; each fails
these budgets.
"""

import tracemalloc

import pytest

from repro.core.rng import RandomStreams
from repro.experiments import fig5, measurement, profiles
from repro.functions.mica import MicaStore
from repro.functions.storage import RamDisk

MB = 1 << 20


def traced_peak(build):
    """Peak bytes traced while ``build()`` runs, above what was live before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        build()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_ramdisk_costs_nothing_until_written():
    # The fio builders' 64 MiB namespace.
    assert traced_peak(lambda: RamDisk(64 << 20)) < 1 * MB


def test_mica_store_costs_its_index_not_its_logs():
    # 8 x 4 MiB logs; the 32k empty buckets are what remains.
    assert traced_peak(lambda: MicaStore(partitions=8)) < 4 * MB


@pytest.mark.parametrize("key", ["fio:write", "mica:4"])
def test_builder_peak(key):
    assert traced_peak(lambda: profiles._BUILDERS[key](20)) < 16 * MB


LADDER_PROFILE = "rem:file_image@mtu"


def test_all_simulated_knee_ladder_peak():
    # Default n (20,000 requests a rung); the profile and its priced
    # services are built before tracing starts.
    profile = profiles.get_profile(LADDER_PROFILE)
    measurement.cpu_service_seconds(profile, "host")
    peak = traced_peak(lambda: measurement.measure_operating_point(
        profile, "host", RandomStreams(1), engine="sim"))
    assert peak < 3.5 * MB


def test_all_simulated_fig5_curve_peak():
    # The host matcher at 8 cores over the 15 default rates, at the
    # curve's default n (12,000 requests a rung).
    profile = profiles.get_profile(LADDER_PROFILE)
    peak = traced_peak(lambda: fig5.measure_series(
        profile, "host", "host-8c", fig5.DEFAULT_RATES_GBPS,
        RandomStreams(1), cores=8, engine="sim"))
    assert peak < 6.5 * MB
