"""Cross-validation: the Lindley fast path against the event kernel.

The experiments run on the vectorized queueing fast path; the substrates
run on the DES kernel.  Both claim to model the same FIFO queue — so fed
identical arrivals and service times, they must produce identical
waiting times.  This is the load-bearing equivalence behind trusting the
sweeps.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Simulator
from repro.core.resources import Resource
from repro.core.queueing import lindley_waits, simulate_gg1


def des_fifo_waits(gaps, services):
    """Waiting times from an event-kernel single-server FIFO."""
    sim = Simulator()
    server = Resource(sim, capacity=1)
    waits = []
    arrivals = np.cumsum(gaps)

    def job(arrival, service):
        yield sim.timeout(arrival)
        request = server.request()
        yield request
        waits.append(sim.now - arrival)
        yield sim.timeout(service)
        server.release()

    for arrival, service in zip(arrivals, services):
        sim.process(job(float(arrival), float(service)))
    sim.run()
    return np.asarray(waits)


class TestLindleyVsKernel:
    def test_deterministic_case(self):
        gaps = np.array([1.0, 0.5, 0.5, 2.0, 0.1])
        services = np.array([1.0, 1.0, 0.2, 0.1, 0.5])
        assert des_fifo_waits(gaps, services) == pytest.approx(
            lindley_waits(gaps, services)
        )

    def test_random_heavy_load(self):
        rng = np.random.default_rng(0)
        gaps = rng.exponential(1.0, size=300)
        services = rng.exponential(0.9, size=300)
        assert des_fifo_waits(gaps, services) == pytest.approx(
            lindley_waits(gaps, services)
        )

    @given(st.integers(min_value=1, max_value=60), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_equivalence_property(self, n, seed):
        rng = np.random.default_rng(seed)
        gaps = rng.exponential(1.0, size=n)
        services = rng.exponential(rng.uniform(0.2, 1.5), size=n)
        kernel = des_fifo_waits(gaps, services)
        fast = lindley_waits(gaps, services)
        assert np.allclose(kernel, fast, rtol=1e-9, atol=1e-12)


class TestShardingEquivalence:
    def test_two_shards_equal_two_kernel_queues(self):
        """RSS sharding in the fast path = independent kernel queues."""
        rng = np.random.default_rng(7)
        outcome = simulate_gg1(
            1000.0, lambda r, n: r.exponential(4e-4, size=n), 2000,
            np.random.default_rng(7),
        )
        # re-derive the same run on the kernel
        rng2 = np.random.default_rng(7)
        gaps = rng2.exponential(1e-3, size=2000)
        services = rng2.exponential(4e-4, size=2000)
        kernel_waits = des_fifo_waits(gaps, services)
        fast_sojourns = outcome.sojourns
        assert np.allclose(kernel_waits + services, fast_sojourns, rtol=1e-9)
