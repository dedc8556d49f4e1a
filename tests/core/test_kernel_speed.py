"""Same-process speed ratios: each vectorized kernel against its oracle.

A de-vectorized hot path is many times slower.  Comparing a kernel with
its scalar reference on the same input in the same process catches that
on any host, with no baseline recorded on another machine.  CPU time,
the best of five repeats per side, the two sides alternating so a busy
host slows both alike.
"""

import time

import numpy as np

from repro.core.queueing import (
    bounded_waits,
    bounded_waits_reference,
    lindley_waits,
    lindley_waits_reference,
    simulate_batch_server,
    simulate_batch_server_reference,
)

REQUESTS = 20_000
REPEATS = 5


def best_cpu_seconds(fast, reference, *args):
    """Best-of-``REPEATS`` CPU seconds of ``fast(*args)`` and of
    ``reference(*args)``, measured in alternation."""
    best = [float("inf"), float("inf")]
    for _ in range(REPEATS):
        for side, kernel in enumerate((fast, reference)):
            start = time.process_time()
            kernel(*args)
            best[side] = min(best[side], time.process_time() - start)
    return best


def bounded_input(load, limit_services):
    """Poisson arrivals at rate 1 and exponential services of mean
    ``load``, with a queue limit of ``limit_services`` mean services."""
    rng = np.random.default_rng(1)
    arrivals = np.cumsum(rng.exponential(1.0, size=REQUESTS))
    services = rng.exponential(load, size=REQUESTS)
    return arrivals, services, limit_services * load


def assert_bounded_matches_reference(arrivals, services, limit):
    kept, waits = bounded_waits(arrivals, services, limit)
    kept_ref, waits_ref, _, _ = bounded_waits_reference(arrivals, services,
                                                        limit)
    assert np.array_equal(kept, kept_ref)
    np.testing.assert_allclose(waits, waits_ref, rtol=0.0, atol=1e-12)
    return REQUESTS - int(kept.sum())


def test_lindley_kernel_beats_scalar_reference():
    rng = np.random.default_rng(1)
    gaps = rng.exponential(1e-6, size=REQUESTS)
    services = rng.exponential(8e-7, size=REQUESTS)
    np.testing.assert_allclose(lindley_waits(gaps, services),
                               lindley_waits_reference(gaps, services),
                               rtol=0.0, atol=1e-12)
    fast, reference = best_cpu_seconds(lindley_waits, lindley_waits_reference,
                                       gaps, services)
    assert reference >= 10.0 * fast, (
        f"lindley_waits {fast * 1e3:.3f} ms vs reference "
        f"{reference * 1e3:.3f} ms: under 10x")


def test_bounded_kernel_under_overload_costs_little_over_reference():
    # Sustained overload (load 1.5): nearly every block is finished by
    # the scalar recursion, so the kernel may add only its routing pass.
    arrivals, services, limit = bounded_input(1.5, 4.0)
    assert assert_bounded_matches_reference(arrivals, services, limit) \
        > REQUESTS // 4
    fast, reference = best_cpu_seconds(bounded_waits, bounded_waits_reference,
                                       arrivals, services, limit)
    assert fast <= 1.5 * reference, (
        f"bounded_waits {fast * 1e3:.3f} ms vs reference "
        f"{reference * 1e3:.3f} ms under overload: over 1.5x")


def test_bounded_kernel_with_rare_drops_beats_reference():
    # A handful of drops: the fixed point settles them in a few
    # closed-form passes.
    arrivals, services, limit = bounded_input(0.8, 37.5)
    assert 0 < assert_bounded_matches_reference(arrivals, services, limit) \
        < 10
    fast, reference = best_cpu_seconds(bounded_waits, bounded_waits_reference,
                                       arrivals, services, limit)
    assert reference >= 2.5 * fast, (
        f"bounded_waits {fast * 1e3:.3f} ms vs reference "
        f"{reference * 1e3:.3f} ms with rare drops: under 2.5x")


def test_batch_server_beats_scalar_reference():
    args = (50_000.0, REQUESTS)
    engine = (32, 15e-6, 5e-6, 1e-6)  # batch, timeout, setup, per item

    def run(simulate):
        return lambda: simulate(*args, np.random.default_rng(2), *engine)

    fast, reference = run(simulate_batch_server)(), \
        run(simulate_batch_server_reference)()
    np.testing.assert_array_equal(fast.sojourns, reference.sojourns)
    fast, reference = best_cpu_seconds(run(simulate_batch_server),
                                       run(simulate_batch_server_reference))
    assert reference >= 2.0 * fast, (
        f"simulate_batch_server {fast * 1e3:.3f} ms vs reference "
        f"{reference * 1e3:.3f} ms: under 2x")
