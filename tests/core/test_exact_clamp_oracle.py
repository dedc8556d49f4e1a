"""``bounded_waits_reference`` is bit-identical to its ``max(0.0, x)`` form.

The scalar bounded-buffer loop clamps its drained backlog with
``x if x > 0.0 else 0.0`` instead of the builtin ``max(0.0, x)``.  The two
are the same function on floats — ``max`` keeps its first argument unless
the second is strictly greater — so NaN and -0.0 both clamp to +0.0.  A
frozen copy of the old loop is the oracle; every output (keep mask,
waits, carry backlog, last arrival) must match bit for bit, sign of zero
and NaN included.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queueing import bounded_waits, bounded_waits_reference


def frozen_bounded_waits_reference(arrivals, services, queue_limit,
                                   initial_backlog=0.0, previous_arrival=0.0):
    """The scalar loop as it was before the exact-clamp rewrite."""
    n = len(arrivals)
    kept = np.zeros(n, dtype=bool)
    waits = []
    backlog = float(initial_backlog)
    previous = float(previous_arrival)
    arrival_list = arrivals.tolist()
    service_list = services.tolist()
    for i in range(n):
        arrival = arrival_list[i]
        backlog = max(0.0, backlog - (arrival - previous))
        previous = arrival
        if backlog > queue_limit:
            continue
        kept[i] = True
        waits.append(backlog)
        backlog += service_list[i]
    return kept, np.asarray(waits), backlog, previous


def _float_bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_bit_identical(got, want):
    kept, waits, backlog, previous = got
    kept_ref, waits_ref, backlog_ref, previous_ref = want
    assert np.array_equal(kept, kept_ref)
    assert np.array_equal(waits, waits_ref, equal_nan=True)
    # array_equal treats -0.0 == 0.0; the raw bytes do not.
    assert waits.tobytes() == waits_ref.tobytes()
    assert _float_bits(backlog) == _float_bits(backlog_ref)
    assert _float_bits(previous) == _float_bits(previous_ref)


# Gaps and services on a coarse dyadic grid make exact ties (backlog
# draining to exactly 0.0, waits exactly at the limit) common; zero gaps
# give simultaneous arrivals.
GRID = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 2.0])
SPECIAL = st.sampled_from([0.0, -0.0, float("nan"), 1e-300, 3.0])


@st.composite
def bounded_inputs(draw):
    n = draw(st.integers(min_value=0, max_value=60))
    gaps = draw(st.lists(st.one_of(GRID, st.floats(0.0, 3.0)),
                         min_size=n, max_size=n))
    services = draw(st.lists(st.one_of(GRID, SPECIAL, st.floats(0.0, 3.0)),
                             min_size=n, max_size=n))
    limit = draw(st.one_of(GRID, st.floats(0.0, 4.0)))
    initial = draw(st.one_of(GRID, SPECIAL))
    previous = draw(st.sampled_from([0.0, -0.0]))
    arrivals = np.cumsum(np.asarray(gaps, dtype=float)) if n else np.empty(0)
    return (arrivals, np.asarray(services, dtype=float), limit, initial,
            previous)


class TestExactClamp:
    @given(bounded_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_frozen_loop(self, inputs):
        arrivals, services, limit, initial, previous = inputs
        assert_bit_identical(
            bounded_waits_reference(arrivals, services, limit, initial,
                                    previous),
            frozen_bounded_waits_reference(arrivals, services, limit,
                                           initial, previous))

    def test_negative_zero_backlog_clamps_to_positive_zero(self):
        # -0.0 - (0.0 - -0.0) is -0.0: both loops must store +0.0.
        arrivals = np.array([0.0, 0.0])
        services = np.array([0.0, 1.0])
        got = bounded_waits_reference(arrivals, services, 1.0, -0.0, -0.0)
        want = frozen_bounded_waits_reference(arrivals, services, 1.0,
                                              -0.0, -0.0)
        assert_bit_identical(got, want)
        assert not math.copysign(1.0, float(got[1][0])) < 0

    def test_nan_backlog_clamps_to_zero(self):
        arrivals = np.array([1.0, 2.0, 3.0])
        services = np.array([float("nan"), 0.5, 0.5])
        got = bounded_waits_reference(arrivals, services, 1.0)
        want = frozen_bounded_waits_reference(arrivals, services, 1.0)
        assert_bit_identical(got, want)
        assert got[1][1] == 0.0

    def test_exact_tie_at_the_limit_is_kept(self):
        # Backlog 1.0 at an arrival with limit 1.0: kept, waits exactly 1.0.
        arrivals = np.array([0.0, 0.0])
        services = np.array([1.0, 1.0])
        got = bounded_waits_reference(arrivals, services, 1.0)
        assert_bit_identical(
            got, frozen_bounded_waits_reference(arrivals, services, 1.0))
        assert got[0].tolist() == [True, True]

    def test_overloaded_kernel_fallback_matches_frozen_loop(self):
        # Deep sustained overload drives _bounded_block into the scalar
        # fallback; the kernel's keeps and waits equal the frozen loop's.
        rng = np.random.default_rng(11)
        arrivals = np.cumsum(rng.exponential(1.0, size=9000))
        services = rng.exponential(1.6, size=9000)
        kept, waits = bounded_waits(arrivals, services, 4.0)
        kept_ref, waits_ref, _, _ = frozen_bounded_waits_reference(
            arrivals, services, 4.0)
        assert np.array_equal(kept, kept_ref)
        np.testing.assert_allclose(waits, waits_ref, atol=1e-9, rtol=0.0)
