"""Memory budgets for the fixture builders' device buffers.

A simulated device or log allocates what is written to it, not its
nominal capacity (DESIGN.md §9).  Budgets are traced Python allocations
(``tracemalloc``), not resident memory, so they hold on any host.  Only
the builders with big buffers are traced: tracing slows a build ~3x.
"""

import tracemalloc

import pytest

from repro.experiments import profiles
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
