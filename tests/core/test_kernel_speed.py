"""Same-process speed ratio: the vectorized Lindley kernel against its oracle.

A de-vectorized hot path is 20-30x slower.  Comparing the kernel with
its scalar reference on the same input in the same process catches
that on any host, with no baseline recorded on another machine.  CPU
time, minimum of five repeats, so a busy host slows both sides.
"""

import time

import numpy as np

from repro.core.queueing import lindley_waits, lindley_waits_reference

REQUESTS = 20_000
REPEATS = 5
MIN_SPEEDUP = 10.0


def best_cpu_seconds(kernel, *args):
    best = float("inf")
    for _ in range(REPEATS):
        start = time.process_time()
        kernel(*args)
        best = min(best, time.process_time() - start)
    return best


def test_lindley_kernel_beats_scalar_reference():
    rng = np.random.default_rng(1)
    gaps = rng.exponential(1e-6, size=REQUESTS)
    services = rng.exponential(8e-7, size=REQUESTS)
    np.testing.assert_allclose(lindley_waits(gaps, services),
                               lindley_waits_reference(gaps, services),
                               rtol=0.0, atol=1e-12)
    fast = best_cpu_seconds(lindley_waits, gaps, services)
    reference = best_cpu_seconds(lindley_waits_reference, gaps, services)
    assert reference >= MIN_SPEEDUP * fast, (
        f"lindley_waits {fast * 1e3:.3f} ms vs reference "
        f"{reference * 1e3:.3f} ms: under {MIN_SPEEDUP:.0f}x")
