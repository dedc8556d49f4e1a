"""Verdict-only bounded-buffer runs (``drop_budget`` / ``Overloaded``).

A run given a served-rate floor may stop at a block boundary once its
drops exceed :func:`drop_budget_for`; the bound behind the budget must
make that verdict exact — a stopped run could never have reached the
floor — and a run that is not stopped must be the full answer, bit for
bit.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.queueing import (
    Overloaded,
    VerdictOnlyError,
    bounded_waits,
    drop_budget_for,
    simulate_gg1,
    simulate_gg1_ladder,
)


def served_rate(kept, arrivals):
    """Kept requests per second of kept arrival span (outcome_to_metrics)."""
    if not kept.any():
        return 0.0
    return int(kept.sum()) / float(arrivals[kept][-1])


def exp_sampler(mean):
    return lambda rng, n: rng.exponential(mean, size=n)


class TestDropBudget:
    def test_no_bound_when_span_is_not_positive(self):
        assert drop_budget_for(np.array([1.0, 2.0]), np.array([0.5, 3.0]),
                               1.0) is None
        assert drop_budget_for(np.empty(0), np.empty(0), 1.0) is None

    def test_budget_is_the_last_uncertain_drop_count(self):
        arrivals = np.arange(1.0, 101.0)  # n = 100, a_n = 100
        services = np.full(100, 10.0)     # span a_n - s_max = 90
        budget = drop_budget_for(arrivals, services, 0.5)
        # (n - D) < 0.5 * 90 * (1 - 1e-9)  <=>  D > 55.00000004
        assert budget == 55

    @given(st.integers(2, 3000), st.floats(0.5, 3.0), st.floats(0.3, 1.2),
           st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_exceeding_the_budget_proves_the_floor_is_missed(
            self, n, load, floor_fraction, seed):
        rng = np.random.default_rng(seed)
        arrivals = np.cumsum(rng.exponential(1.0, size=n))
        services = rng.exponential(load, size=n)
        floor = floor_fraction  # arrival rate is 1: a fraction of offered
        kept, _ = bounded_waits(arrivals, services, 3.0)
        budget = drop_budget_for(arrivals, services, floor)
        if budget is not None and n - int(kept.sum()) > budget:
            assert served_rate(kept, arrivals) < floor


class TestBoundedWaitsBudget:
    def overloaded_inputs(self, n=20_000, seed=4):
        rng = np.random.default_rng(seed)
        return (np.cumsum(rng.exponential(1.0, size=n)),
                rng.exponential(1.5, size=n))

    def test_stops_at_a_block_boundary(self):
        arrivals, services = self.overloaded_inputs()
        result = bounded_waits(arrivals, services, 4.0, drop_budget=100)
        assert isinstance(result, Overloaded)
        assert result.requests == len(arrivals)
        assert result.dropped > 100
        kept, _ = bounded_waits(arrivals, services, 4.0)
        assert result.dropped <= len(arrivals) - int(kept.sum())

    def test_within_budget_is_the_full_answer(self):
        arrivals, services = self.overloaded_inputs()
        kept, waits = bounded_waits(arrivals, services, 4.0)
        drops = len(arrivals) - int(kept.sum())
        got_kept, got_waits = bounded_waits(arrivals, services, 4.0,
                                            drop_budget=drops)
        assert np.array_equal(got_kept, kept)
        assert got_waits.tobytes() == waits.tobytes()

    @pytest.mark.parametrize("floor", [0.5, 0.66, 0.7, 0.9])
    def test_gg1_verdict_is_exact(self, floor):
        # Arrival rate 1, mean service 1.5: the full run serves ~0.67.
        full = simulate_gg1(1.0, exp_sampler(1.5), 20_000,
                            np.random.default_rng(9), queue_limit=4.0)
        verdict = simulate_gg1(1.0, exp_sampler(1.5), 20_000,
                               np.random.default_rng(9), queue_limit=4.0,
                               min_served_rate=floor)
        full_rate = len(full.arrivals) / float(full.arrivals[-1])
        if isinstance(verdict, Overloaded):
            assert full_rate < floor
        else:
            assert verdict.sojourns.tobytes() == full.sojourns.tobytes()
            assert verdict.dropped == full.dropped

    def test_deep_overload_stops_early(self):
        verdict = simulate_gg1(1.0, exp_sampler(1.5), 20_000,
                               np.random.default_rng(9), queue_limit=4.0,
                               min_served_rate=0.9)
        assert isinstance(verdict, Overloaded)
        assert verdict.dropped < 20_000

    def test_ladder_rows_stop_independently(self):
        rates = [0.4, 1.0, 1.6]
        floors = [0.95 * rate for rate in rates]
        full = simulate_gg1_ladder(rates, exp_sampler(1.5), 20_000,
                                   np.random.default_rng(2), queue_limit=4.0)
        verdict = simulate_gg1_ladder(rates, exp_sampler(1.5), 20_000,
                                      np.random.default_rng(2),
                                      queue_limit=4.0,
                                      min_served_rates=[None] + floors[1:])
        assert not isinstance(verdict[0], Overloaded)
        assert verdict[0].sojourns.tobytes() == full[0].sojourns.tobytes()
        assert all(isinstance(row, Overloaded) for row in verdict[1:])


class TestOverloaded:
    def test_reading_a_measurement_raises(self):
        stopped = Overloaded(requests=100, dropped=40)
        for name in ("latency_p99", "latency_mean", "completed_rate",
                     "goodput_gbps", "sojourns", "arrivals"):
            with pytest.raises(VerdictOnlyError):
                getattr(stopped, name)

    def test_verdict_fields_and_pickling(self):
        stopped = Overloaded(requests=100, dropped=40)
        assert (stopped.requests, stopped.dropped) == (100, 40)
        assert not hasattr(stopped, "_private")
        assert pickle.loads(pickle.dumps(stopped)) == stopped
