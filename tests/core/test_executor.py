"""Parallel executor: serial/parallel equivalence and counter merging.

The contract under test is the one DESIGN.md promises: ``--jobs N`` is a
wall-clock knob, never a results knob.  Every work unit re-derives its
RNG substreams from ``(seed, name)``, so the same units produce the same
bytes whether they run in-process or in forked workers.
"""

from __future__ import annotations

import io
import os
import signal
import time

import pytest

from repro.core import trace
from repro.obs import metrics
from repro.core.cache import ResultCache, cache_key, configure
from repro.core.executor import (
    ParallelExecutor,
    WorkUnit,
    map_cached,
    resolve_jobs,
)
from repro.core.rng import RandomStreams
from repro.experiments.fig4 import run_fig4
from repro.experiments.measurement import compute_operating_point

# Cheap keys: tiny profiles, fast ladders.  Enough to exercise the
# workers without making the suite slow.
CHEAP_KEYS = ("udp:64", "dpdk:64")
SAMPLES = 20
N_REQUESTS = 600
SEED = 7


@pytest.fixture(autouse=True)
def _fresh_cache():
    """Each test gets an empty in-memory cache and zeroed counters."""
    configure(ResultCache())
    metrics.reset()
    trace.disable()
    yield
    configure(ResultCache())
    metrics.reset()
    trace.disable()


def _square(value):
    return value * value


def _pid(_index):
    return os.getpid()


def _sleep_then_return(duration_s, value):
    time.sleep(duration_s)
    return value


def _raise_value_error(message):
    raise ValueError(message)


def _kill_self(value):
    os.kill(os.getpid(), signal.SIGKILL)
    return value  # never reached


def _die_in_worker(parent_pid, n):
    """SIGKILL a forked worker; run normally in the parent."""
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return _bump_dotted_counters(n)


def _bump_dotted_counters(n):
    """A unit that increments arbitrary dotted-name counters (PR 3)."""
    metrics.counter("sim.events_fired").inc(n)
    metrics.counter("custom.widget.count").inc(2 * n)
    return n


def _unit_seeded_draw(name, seed):
    """A unit that derives its randomness the way experiments do."""
    streams = RandomStreams(seed)
    return float(streams.stream(name).random())


class TestWorkUnit:
    def test_run_invokes_fn(self):
        unit = WorkUnit(name="u", fn=_square, args=(3,))
        assert unit.run() == 9

    def test_kwargs_are_passed(self):
        unit = WorkUnit(name="u", fn=_unit_seeded_draw,
                        kwargs={"name": "a", "seed": 1})
        assert unit.run() == _unit_seeded_draw("a", 1)


class TestResolveJobs:
    def test_none_is_serial(self):
        assert resolve_jobs(None) == 1

    def test_zero_is_auto(self):
        assert resolve_jobs(0) >= 1

    def test_negative_clamps_to_one(self):
        assert resolve_jobs(-3) == 1


class TestMapEquivalence:
    def test_results_in_submission_order(self):
        units = [WorkUnit(name=f"u{i}", fn=_square, args=(i,))
                 for i in range(8)]
        serial = ParallelExecutor(jobs=1).map(units)
        parallel = ParallelExecutor(jobs=2).map(units)
        assert serial == [i * i for i in range(8)]
        assert parallel == serial

    def test_seeded_units_identical_across_jobs(self):
        units = [
            WorkUnit(name=f"draw:{i}", fn=_unit_seeded_draw,
                     args=(f"draw:{i}", SEED))
            for i in range(6)
        ]
        serial = ParallelExecutor(jobs=1).map(units)
        parallel = ParallelExecutor(jobs=3).map(units)
        assert parallel == serial

    def test_unpicklable_units_run_in_forked_workers(self, forked_workers):
        captured = []

        def closure(value):  # not picklable: local closure
            captured.append(value)
            return value + 1

        units = [WorkUnit(name=f"c{i}", fn=closure, args=(i,))
                 for i in range(3)]
        assert ParallelExecutor(jobs=2).map(units) == [1, 2, 3]
        assert captured == []  # the workers inherited the closure


class TestCounterMerging:
    def test_probe_counts_identical_at_any_jobs(self):
        """Worker-side probe counters are shipped back and merged."""

        def run(jobs):
            metrics.reset()
            run_fig4(keys=CHEAP_KEYS, samples=SAMPLES,
                     n_requests=N_REQUESTS,
                     streams=RandomStreams(SEED), jobs=jobs)
            return metrics.counter(metrics.PROBES).value

        serial_probes = run(1)
        configure(ResultCache())  # drop cache so jobs=2 recomputes
        parallel_probes = run(2)
        assert serial_probes > 0
        assert parallel_probes == serial_probes

    def test_dotted_counters_merge_like_builtin_ones(self):
        """Counters take any dotted name; worker deltas merge identically."""
        units = [WorkUnit(name=f"bump{i}", fn=_bump_dotted_counters,
                          args=(i + 1,)) for i in range(4)]

        def run(jobs):
            metrics.reset()
            ParallelExecutor(jobs=jobs).map(units)
            return (metrics.counter("sim.events_fired").value,
                    metrics.counter("custom.widget.count").value)

        assert run(1) == (10, 20)
        assert run(2) == (10, 20)


def _trace_jsonl_for_jobs(jobs):
    """Run a tiny traced fig4 and serialize the buffer to JSONL bytes."""
    metrics.reset()
    configure(ResultCache())
    rec = trace.enable(metrics_interval_s=1e-3)
    try:
        run_fig4(keys=CHEAP_KEYS, samples=SAMPLES, n_requests=N_REQUESTS,
                 streams=RandomStreams(SEED), jobs=jobs)
        buffer = io.StringIO()
        trace.export_jsonl(buffer, rec)
        return buffer.getvalue(), rec.appended, rec.dropped
    finally:
        trace.disable()


class TestTraceDeterminism:
    def test_jsonl_byte_identical_jobs_1_vs_4(self):
        """The flight recorder is part of the --jobs contract: traces of
        the same study serialize to identical bytes at any job count."""
        serial, appended_1, dropped_1 = _trace_jsonl_for_jobs(1)
        parallel, appended_4, dropped_4 = _trace_jsonl_for_jobs(4)
        assert serial  # non-empty: the study actually traced
        assert serial == parallel
        assert appended_1 == appended_4
        assert dropped_1 == dropped_4

    def test_repeated_serial_runs_identical(self):
        first, _, _ = _trace_jsonl_for_jobs(1)
        second, _, _ = _trace_jsonl_for_jobs(1)
        assert first == second


class TestFig4Equivalence:
    def test_fig4_rows_identical_serial_vs_parallel(self):
        serial = run_fig4(keys=CHEAP_KEYS, samples=SAMPLES,
                          n_requests=N_REQUESTS,
                          streams=RandomStreams(SEED), jobs=1)
        configure(ResultCache())  # make jobs=2 recompute from scratch
        parallel = run_fig4(keys=CHEAP_KEYS, samples=SAMPLES,
                            n_requests=N_REQUESTS,
                            streams=RandomStreams(SEED), jobs=2)
        assert len(serial) == len(parallel)
        for a, b in zip(serial, parallel):
            assert a.key == b.key
            assert a.host.throughput_rps == b.host.throughput_rps
            assert a.host.metrics.latency_p99 == b.host.metrics.latency_p99
            assert a.host.server_power_w == b.host.server_power_w
            assert a.snic.throughput_rps == b.snic.throughput_rps
            assert a.snic.metrics.latency_p99 == b.snic.metrics.latency_p99
            assert a.snic.server_power_w == b.snic.server_power_w


class TestMapCached:
    def test_hits_skip_submission_and_misses_are_stored(self):
        store = ResultCache()
        keys = [cache_key("sq", i) for i in range(4)]
        units = [WorkUnit(name=f"sq{i}", fn=_square, args=(i,))
                 for i in range(4)]
        store.put(keys[1], 111)  # pre-seed one hit
        executor = ParallelExecutor(jobs=1)
        results = map_cached(executor, units, keys, store=store)
        assert results == [0, 111, 4, 9]
        # Every miss landed in the cache.
        for i in (0, 2, 3):
            found, value = store.get(keys[i])
            assert found and value == i * i

    def test_operating_point_units_round_trip(self):
        key = cache_key("op", CHEAP_KEYS[0], "host")
        unit = WorkUnit(
            name="op",
            fn=compute_operating_point,
            args=(CHEAP_KEYS[0], "host", SEED, SAMPLES, N_REQUESTS),
        )
        store = ResultCache()
        first = map_cached(ParallelExecutor(jobs=1), [unit], [key],
                           store=store)
        second = map_cached(ParallelExecutor(jobs=1), [unit], [key],
                            store=store)
        assert second[0] is first[0]


class TestSerialBypass:
    def test_single_core_bypasses_pool(self, monkeypatch):
        import repro.core.executor as executor_module

        monkeypatch.setattr(executor_module, "usable_cpu_count", lambda: 1)
        executor = ParallelExecutor(jobs=4)
        units = [WorkUnit(name=f"u{i}", fn=_square, args=(i,))
                 for i in range(6)]
        assert executor.map(units) == [i * i for i in range(6)]
        assert executor.bypasses == 1

    def test_tiny_batches_bypass_after_first_estimate(self, monkeypatch):
        import repro.core.executor as executor_module

        monkeypatch.setattr(executor_module, "usable_cpu_count", lambda: 4)
        executor = ParallelExecutor(jobs=2)
        units = [WorkUnit(name=f"u{i}", fn=_square, args=(i,))
                 for i in range(4)]
        executor.map(units)  # first batch: no estimate yet, goes wide
        assert executor._seconds_per_unit is not None
        assert executor._fork_seconds is not None
        # The decision reads only the estimates, so set them from fixed
        # forked-batch timings instead of this host's fork and run times.
        bypasses = executor.bypasses
        executor._seconds_per_unit = executor._fork_seconds = None
        # 40 ms of work on 2 workers saves 20 ms; the batch lost 30 ms.
        executor._observe(0.050, len(units), [0.010] * 4)
        assert executor._fork_seconds == pytest.approx(0.030)
        executor.map(units)
        assert executor.bypasses == bypasses + 1
        # The same work, forked for 5 ms: forking pays.
        executor._seconds_per_unit = executor._fork_seconds = None
        executor._observe(0.025, len(units), [0.010] * 4)
        executor.map(units)
        assert executor.bypasses == bypasses + 1

    def test_fork_cost_is_not_priced_as_unit_work(self):
        executor = ParallelExecutor(jobs=2)
        # Four 10 ms units came back from workers after 60 ms of wall.
        executor._observe(0.060, 4, [0.010] * 4)
        assert executor._seconds_per_unit == pytest.approx(0.010)
        executor._observe(0.030, 3)  # in process: 10 ms a unit
        assert executor._seconds_per_unit == pytest.approx(0.010)

    def test_bypass_results_identical_to_pool(self, monkeypatch):
        import repro.core.executor as executor_module

        units = [
            WorkUnit(name=f"draw:{i}", fn=_unit_seeded_draw,
                     args=(f"draw:{i}", SEED))
            for i in range(5)
        ]
        monkeypatch.setattr(executor_module, "usable_cpu_count", lambda: 1)
        bypassed = ParallelExecutor(jobs=4).map(units)
        monkeypatch.setattr(executor_module, "usable_cpu_count", lambda: 2)
        monkeypatch.setattr(executor_module, "MIN_PARALLEL_SECONDS",
                            float("-inf"))
        forked = ParallelExecutor(jobs=4)
        assert forked.map(units) == bypassed
        assert forked.bypasses == 0


class TestWorkerLoop:
    """Workers are forked per batch and take one unit at a time."""

    def test_at_most_jobs_workers_per_batch(self, forked_workers):
        units = [WorkUnit(name=f"p{i}", fn=_pid, args=(i,))
                 for i in range(12)]
        pids = ParallelExecutor(jobs=2).map(units)
        assert len(pids) == 12
        assert 1 <= len(set(pids)) <= 2
        assert os.getpid() not in pids

    def test_each_batch_forks_fresh_workers(self, forked_workers):
        executor = ParallelExecutor(jobs=2)
        units = [WorkUnit(name=f"p{i}", fn=_pid, args=(i,))
                 for i in range(4)]
        first = set(executor.map(units))
        second = set(executor.map(units))
        assert not first & second  # the first batch's workers exited

    def test_counters_merge_exactly(self, forked_workers):
        units = [WorkUnit(name=f"bump{i}", fn=_bump_dotted_counters,
                          args=(i + 1,)) for i in range(10)]
        assert ParallelExecutor(jobs=2).map(units) == list(range(1, 11))
        assert metrics.counter("sim.events_fired").value == sum(range(1, 11))
        assert (metrics.counter("custom.widget.count").value
                == 2 * sum(range(1, 11)))

    def test_killed_worker_costs_only_its_unit(self, forked_workers):
        units = [WorkUnit(name=f"bump{i}", fn=_bump_dotted_counters,
                          args=(i + 1,)) for i in range(5)]
        units[2] = WorkUnit(name="victim", fn=_die_in_worker,
                            args=(os.getpid(), 3))
        assert ParallelExecutor(jobs=2).map(units) == [1, 2, 3, 4, 5]
        # The victim reran here; nothing was merged twice.
        assert metrics.counter("sim.events_fired").value == 15
        assert metrics.counter("custom.widget.count").value == 30
        assert metrics.counter(metrics.RUNFARM_WORKER_LOST).value == 1

    def test_plain_map_reraises_the_units_own_exception(self,
                                                        forked_workers):
        units = [WorkUnit(name="a", fn=_bump_dotted_counters, args=(1,)),
                 WorkUnit(name="boom", fn=_raise_value_error, args=("no",)),
                 WorkUnit(name="c", fn=_bump_dotted_counters, args=(4,))]
        for jobs in (1, 2):
            metrics.reset()
            with pytest.raises(ValueError, match="no"):
                ParallelExecutor(jobs=jobs).map(units)
            # As at jobs=1: the units before the failing one are merged,
            # the ones after it are not.
            assert metrics.counter("sim.events_fired").value == 1


class TestMapSupervised:
    """Typed failure records: timeouts, crashes, and errors are data."""

    def test_success_matches_plain_map(self):
        from repro.core.executor import UnitFailure

        units = [WorkUnit(name=f"s{i}", fn=_square, args=(i,))
                 for i in range(4)]
        executor = ParallelExecutor(jobs=2)
        outcomes = executor.map_supervised(units)
        assert outcomes == [0, 1, 4, 9]
        assert not any(isinstance(o, UnitFailure) for o in outcomes)

    def test_timeout_surfaces_as_record_not_exception(self):
        from repro.core.executor import UnitFailure

        units = [
            WorkUnit(name="hang", fn=_sleep_then_return, args=(30.0, 1)),
            WorkUnit(name="quick", fn=_square, args=(3,)),
        ]
        executor = ParallelExecutor(jobs=2)
        outcomes = executor.map_supervised(units, unit_timeout_s=0.2)
        failure, ok = outcomes
        assert isinstance(failure, UnitFailure)
        assert failure.kind == UnitFailure.TIMEOUT
        assert failure.unit == "hang"
        assert failure.elapsed_s >= 0.2
        assert ok == 9  # the batchmate is unaffected (surgical kill)
        assert metrics.counter(metrics.RUNFARM_TIMEOUTS).value == 1

    def test_worker_death_surfaces_as_worker_lost(self):
        from repro.core.executor import UnitFailure

        units = [
            WorkUnit(name="victim", fn=_kill_self, args=(1,)),
            WorkUnit(name="survivor", fn=_square, args=(4,)),
        ]
        executor = ParallelExecutor(jobs=2)
        outcomes = executor.map_supervised(units)
        failure, ok = outcomes
        assert isinstance(failure, UnitFailure)
        assert failure.kind == UnitFailure.WORKER_LOST
        assert ok == 16
        assert metrics.counter(metrics.RUNFARM_WORKER_LOST).value == 1

    def test_raising_unit_surfaces_as_error_record(self):
        from repro.core.executor import UnitFailure

        units = [WorkUnit(name="boom", fn=_raise_value_error,
                          args=("no",))]
        executor = ParallelExecutor(jobs=1)
        (failure,) = executor.map_supervised(units)
        assert isinstance(failure, UnitFailure)
        assert failure.kind == UnitFailure.ERROR
        assert failure.error_type == "ValueError"
        assert "no" in failure.message
        assert "boom" in failure.describe()

    def test_counters_merge_only_from_successes(self):
        units = [WorkUnit(name=f"bump{i}", fn=_bump_dotted_counters,
                          args=(i + 1,)) for i in range(3)]
        executor = ParallelExecutor(jobs=2)
        executor.map_supervised(units)
        assert metrics.counter("sim.events_fired").value == 6
        assert metrics.counter("custom.widget.count").value == 12

    def test_unpicklable_hang_is_killed_at_its_deadline(self):
        from repro.core.executor import UnitFailure

        def hang():  # not picklable: local closure
            time.sleep(30.0)

        units = [WorkUnit(name="hang", fn=hang),
                 WorkUnit(name="after", fn=lambda: 5)]
        started = time.perf_counter()
        failure, ok = ParallelExecutor(jobs=1).map_supervised(
            units, unit_timeout_s=0.2)
        assert time.perf_counter() - started < 10.0
        assert isinstance(failure, UnitFailure)
        assert failure.kind == UnitFailure.TIMEOUT
        assert ok == 5  # a replacement worker ran the rest of the batch

    def test_unpicklable_raising_unit_is_typed_too(self):
        from repro.core.executor import UnitFailure

        def bad():
            raise RuntimeError("in-process")

        (failure,) = ParallelExecutor(jobs=1).map_supervised(
            [WorkUnit(name="bad", fn=bad)])
        assert isinstance(failure, UnitFailure)
        assert failure.kind == UnitFailure.ERROR
        assert failure.error_type == "RuntimeError"


class TestUnitContentKey:
    def test_stable_and_distinct(self):
        from repro.core.executor import unit_content_key

        a1 = unit_content_key(WorkUnit(name="a", fn=_square, args=(1,)))
        a2 = unit_content_key(WorkUnit(name="a", fn=_square, args=(1,)))
        b = unit_content_key(WorkUnit(name="a", fn=_square, args=(2,)))
        assert a1 == a2
        assert a1 != b

    def test_unpicklable_unit_has_no_key(self):
        from repro.core.executor import unit_content_key

        unit = WorkUnit(name="c", fn=lambda: None)
        assert unit_content_key(unit) is None
