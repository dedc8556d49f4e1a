"""Verdict-only bounded-buffer runs (``drop_budget`` / ``Overloaded``).

A run given a served-rate floor stops once its drops exceed
:func:`drop_budget_for` — at the first drop past the budget in a block
the scalar recursion finishes, at the end of a fixed-point block — and
the bound behind the budget must make that verdict exact: a stopped run
could never have reached the floor.  A run that is not stopped is the
full answer, bit for bit.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import queueing
from repro.core.queueing import (
    _DROP_BLOCK,
    Overloaded,
    VerdictOnlyError,
    bounded_waits,
    draw_unit_gaps,
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

    def test_stops_at_the_first_drop_past_the_budget(self):
        # Deep overload: the first block goes to the scalar recursion,
        # which stops mid-block.
        arrivals, services = self.overloaded_inputs()
        result = bounded_waits(arrivals, services, 4.0, drop_budget=100)
        assert isinstance(result, Overloaded)
        assert result.requests == len(arrivals)
        assert result.dropped == 101
        kept, _ = bounded_waits(arrivals, services, 4.0)
        assert result.dropped <= len(arrivals) - int(kept.sum())

    def test_fixed_point_block_stops_at_its_end(self, monkeypatch):
        # A handful of drops in the first block, settled by the fixed
        # point without the scalar recursion: the verdict comes at the
        # block's end with all of them counted.
        rng = np.random.default_rng(4)
        arrivals = np.cumsum(rng.exponential(1.0, size=2 * _DROP_BLOCK))
        services = rng.exponential(0.7, size=2 * _DROP_BLOCK)
        calls = count_reference_calls(monkeypatch)
        kept, _ = bounded_waits(arrivals, services, 15.0)
        first_block = _DROP_BLOCK - int(kept[:_DROP_BLOCK].sum())
        assert first_block > 1 and calls == [0]
        result = bounded_waits(arrivals, services, 15.0, drop_budget=0)
        assert result == Overloaded(requests=len(arrivals),
                                    dropped=first_block)

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
        rng = np.random.default_rng(2)
        unit_gaps = draw_unit_gaps(20_000, rng)
        services = exp_sampler(1.5)(rng, 20_000)
        full = simulate_gg1_ladder(rates, unit_gaps, services, queue_limit=4.0)
        verdict = simulate_gg1_ladder(rates, unit_gaps, services,
                                      queue_limit=4.0,
                                      min_served_rates=[None] + floors[1:])
        assert not isinstance(verdict[0], Overloaded)
        assert verdict[0].sojourns.tobytes() == full[0].sojourns.tobytes()
        assert all(isinstance(row, Overloaded) for row in verdict[1:])


def count_reference_calls(monkeypatch):
    """Count the blocks the scalar recursion finishes from now on."""
    calls = [0]
    reference = queueing.bounded_waits_reference

    def counted(*args, **kwargs):
        calls[0] += 1
        return reference(*args, **kwargs)

    monkeypatch.setattr(queueing, "bounded_waits_reference", counted)
    return calls


def mixed_load_inputs(n, first_load, second_load, seed):
    """Arrivals at rate 1; services of mean ``first_load`` for the first
    block and ``second_load`` after it."""
    rng = np.random.default_rng(seed)
    arrivals = np.cumsum(rng.exponential(1.0, size=n))
    services = rng.exponential(1.0, size=n)
    services[:_DROP_BLOCK] *= first_load
    services[_DROP_BLOCK:] *= second_load
    return arrivals, services


def assert_budget_verdicts_exact(arrivals, services, limit, budgets):
    """``drop_budget=B`` stops exactly when the full run drops more than B."""
    kept, waits = bounded_waits(arrivals, services, limit)
    full = len(arrivals) - int(kept.sum())
    for budget in budgets:
        result = bounded_waits(arrivals, services, limit, drop_budget=budget)
        if full > budget:
            assert isinstance(result, Overloaded)
            assert budget < result.dropped <= full
        else:
            got_kept, got_waits = result
            assert np.array_equal(got_kept, kept)
            assert got_waits.tobytes() == waits.tobytes()
    return full


class TestBudgetProperty:
    @given(st.integers(1, 3 * _DROP_BLOCK), st.floats(0.5, 1.2),
           st.floats(0.5, 2.5), st.floats(1.0, 40.0), st.floats(0.0, 1.2),
           st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_overloaded_exactly_when_full_drops_exceed_budget(
            self, n, first_load, second_load, limit_services, fraction,
            seed):
        arrivals, services = mixed_load_inputs(n, first_load, second_load,
                                               seed)
        limit = limit_services * max(first_load, second_load)
        kept, _ = bounded_waits(arrivals, services, limit)
        full = n - int(kept.sum())
        budgets = {0, full - 1, full, full + 1, int(fraction * full)}
        assert_budget_verdicts_exact(arrivals, services, limit,
                                     sorted(b for b in budgets if b >= 0))

    def test_routed_and_fixed_point_blocks_in_one_run(self, monkeypatch):
        # Rare drops in the first block (fixed point), deep overload in
        # the rest (scalar recursion): every budget up to the full count.
        arrivals, services = mixed_load_inputs(3 * _DROP_BLOCK, 0.7, 2.0, 1)
        calls = count_reference_calls(monkeypatch)
        kept, _ = bounded_waits(arrivals, services, 10.0)
        first_block = _DROP_BLOCK - int(kept[:_DROP_BLOCK].sum())
        assert first_block > 1
        assert calls == [2]  # the first block converged, the others did not
        budgets = sorted({first_block - 1, first_block, first_block + 1}
                         | set(range(0, 3 * _DROP_BLOCK, 211)))
        full = assert_budget_verdicts_exact(arrivals, services, 10.0, budgets)
        assert 0 < full < budgets[-1]


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
