"""Run supervisor: retries, quarantine, resume accounting, and the
SupervisedExecutor drop-in seams."""

from __future__ import annotations

import os
import signal
import time

import numpy as np
import pytest

from repro.obs import metrics
from repro.core.cache import ResultCache, cache_key, configure
from repro.core.executor import UnitFailure, WorkUnit, map_cached
from repro.faults.retry import RetryPolicy
from repro.runfarm import manifest as mf
from repro.runfarm.manifest import RunManifest
from repro.runfarm.supervisor import (
    QuarantinedUnitError,
    RunSupervisor,
    SupervisedExecutor,
    SupervisorConfig,
    load_prior_done,
)


@pytest.fixture(autouse=True)
def _fresh_state():
    configure(ResultCache())
    metrics.reset()
    yield
    configure(ResultCache())
    metrics.reset()


# Module-level so they pickle for supervised worker processes.
def _square(value):
    return value * value


def _flaky_square(value, sentinel_dir):
    """SIGKILLs itself on the first attempt, succeeds on the second."""
    marker = os.path.join(sentinel_dir, "attempted")
    if not os.path.exists(marker):
        with open(marker, "w") as handle:
            handle.write("1")
        os.kill(os.getpid(), signal.SIGKILL)
    return value * value


def _hang(duration_s):
    time.sleep(duration_s)
    return "done"


def _raise(message):
    raise ValueError(message)


def _fast_policy(max_attempts=2):
    return RetryPolicy(timeout_s=0.01, max_attempts=max_attempts,
                       backoff_factor=1.0, jitter_fraction=0.0)


def _supervisor(tmp_path, *, config=None, prior_done=frozenset()):
    manifest = RunManifest(str(tmp_path))
    manifest.begin_generation(verb="test", seed=1, samples=1, requests=1,
                              tier="smoke", jobs=2, code_version="test")
    return RunSupervisor(
        manifest=manifest,
        config=config or SupervisorConfig(retry=_fast_policy()),
        prior_done=prior_done,
        rng=np.random.default_rng(0),
    )


class TestRunBatch:
    def test_happy_path_records_done(self, tmp_path):
        from repro.core.executor import ParallelExecutor

        sup = _supervisor(tmp_path)
        units = [WorkUnit(name=f"u{i}", fn=_square, args=(i,))
                 for i in range(4)]
        keys = [cache_key("sup-happy", i) for i in range(4)]
        store = ResultCache()
        results = sup.run_batch(ParallelExecutor(2), units, keys, store)
        assert results == [0, 1, 4, 9]
        state = RunManifest.load(sup.manifest.path)
        assert len(state.done_keys()) == 4
        assert all(r.status == mf.DONE for r in state.units.values())
        assert sup.units_completed == 4
        assert sup.units_quarantined == 0

    def test_cache_hits_record_cached_and_resumed(self, tmp_path):
        from repro.core.executor import ParallelExecutor

        store = ResultCache()
        key = cache_key("sup-hit", 3)
        store.put(key, 9)
        sup = _supervisor(tmp_path, prior_done=frozenset({key}))
        units = [WorkUnit(name="u3", fn=_square, args=(3,))]
        results = sup.run_batch(ParallelExecutor(1), units, [key], store)
        assert results == [9]
        state = RunManifest.load(sup.manifest.path)
        assert state.units[key].status == mf.CACHED
        assert sup.units_resumed == 1
        assert metrics.counter(metrics.RUNFARM_RESUMED).value == 1

    def test_worker_kill_is_requeued_and_result_correct(self, tmp_path):
        from repro.core.executor import ParallelExecutor

        sentinel = tmp_path / "sentinel"
        sentinel.mkdir()
        sup = _supervisor(tmp_path / "run")
        units = [
            WorkUnit(name="flaky", fn=_flaky_square,
                     args=(7, str(sentinel))),
            WorkUnit(name="healthy", fn=_square, args=(5,)),
        ]
        keys = [cache_key("sup-kill", n) for n in ("flaky", "healthy")]
        results = sup.run_batch(ParallelExecutor(2), units, keys,
                                ResultCache())
        assert results == [49, 25]
        assert sup.units_retried == 1
        assert metrics.counter(metrics.RUNFARM_WORKER_LOST).value == 1
        state = RunManifest.load(sup.manifest.path)
        assert state.units[keys[0]].status == mf.DONE
        assert state.units[keys[0]].attempt == 2

    def test_poison_pill_quarantined_after_attempts(self, tmp_path):
        from repro.core.executor import ParallelExecutor

        sup = _supervisor(tmp_path)
        units = [
            WorkUnit(name="poison", fn=_raise, args=("always fails",)),
            WorkUnit(name="healthy", fn=_square, args=(4,)),
        ]
        keys = [cache_key("sup-poison", n) for n in ("p", "h")]
        store = ResultCache()
        with pytest.raises(QuarantinedUnitError) as excinfo:
            sup.run_batch(ParallelExecutor(2), units, keys, store)
        err = excinfo.value
        assert err.quarantined_units() == ["poison"]
        assert err.total == 2
        # The healthy batchmate completed and its artifact was stored
        # before the error surfaced — partial progress is preserved.
        found, value = store.get(keys[1])
        assert found and value == 16
        state = RunManifest.load(sup.manifest.path)
        assert state.units[keys[0]].status == mf.QUARANTINED
        assert state.units[keys[1]].status == mf.DONE
        assert metrics.counter(metrics.RUNFARM_QUARANTINED).value == 1

    def test_timeout_quarantine_under_deadline(self, tmp_path):
        from repro.core.executor import ParallelExecutor

        config = SupervisorConfig(unit_timeout_s=0.15,
                                  retry=_fast_policy(max_attempts=2))
        sup = _supervisor(tmp_path, config=config)
        units = [WorkUnit(name="hang", fn=_hang, args=(30.0,))]
        keys = [cache_key("sup-hang", 1)]
        started = time.monotonic()
        with pytest.raises(QuarantinedUnitError):
            sup.run_batch(ParallelExecutor(1), units, keys, ResultCache())
        # Two attempts at ~0.15s each, not 60s of sleeping.
        assert time.monotonic() - started < 10.0
        assert metrics.counter(metrics.RUNFARM_TIMEOUTS).value == 2
        state = RunManifest.load(sup.manifest.path)
        assert state.units[keys[0]].status == mf.QUARANTINED

    def test_max_elapsed_deadline_stops_retrying(self, tmp_path):
        from repro.core.executor import ParallelExecutor

        # Deadline so tight that the first failure exhausts the budget
        # even though max_attempts would allow many more tries.
        policy = RetryPolicy(timeout_s=1e-4, max_attempts=50,
                             backoff_factor=1.0, jitter_fraction=0.0,
                             max_elapsed_s=1e-4)
        sup = _supervisor(
            tmp_path, config=SupervisorConfig(retry=policy))
        units = [WorkUnit(name="poison", fn=_raise, args=("nope",))]
        with pytest.raises(QuarantinedUnitError):
            sup.run_batch(ParallelExecutor(1), units,
                          [cache_key("sup-deadline", 1)], ResultCache())
        state = RunManifest.load(sup.manifest.path)
        record = next(iter(state.units.values()))
        assert record.status == mf.QUARANTINED
        assert record.attempt < 50

    def test_unkeyed_units_get_manifest_rows(self, tmp_path):
        from repro.core.executor import ParallelExecutor

        sup = _supervisor(tmp_path)
        units = [WorkUnit(name="anon", fn=_square, args=(6,))]
        results = sup.run_batch(ParallelExecutor(1), units, [None],
                                ResultCache())
        assert results == [36]
        state = RunManifest.load(sup.manifest.path)
        assert "unkeyed:anon" in state.units
        assert state.units["unkeyed:anon"].status == mf.DONE

    def test_length_mismatch_rejected(self, tmp_path):
        from repro.core.executor import ParallelExecutor

        sup = _supervisor(tmp_path)
        with pytest.raises(ValueError):
            sup.run_batch(ParallelExecutor(1),
                          [WorkUnit(name="u", fn=_square, args=(1,))],
                          [], ResultCache())


class TestSupervisedExecutor:
    def _executor(self, tmp_path, jobs=2, **kwargs):
        manifest = RunManifest(str(tmp_path))
        manifest.begin_generation(verb="test", seed=1, samples=1,
                                  requests=1, tier="smoke", jobs=jobs,
                                  code_version="test")
        config = kwargs.pop("config",
                            SupervisorConfig(retry=_fast_policy()))
        return SupervisedExecutor(jobs, manifest=manifest, config=config,
                                  **kwargs)

    def test_map_cached_seam_routes_through_supervisor(self, tmp_path):
        executor = self._executor(tmp_path)
        units = [WorkUnit(name=f"u{i}", fn=_square, args=(i,))
                 for i in range(3)]
        keys = [cache_key("se-keyed", i) for i in range(3)]
        assert map_cached(executor, units, keys) == [0, 1, 4]
        state = RunManifest.load(executor.supervisor.manifest.path)
        assert state.done_keys() == frozenset(keys)

    def test_map_seam_derives_content_keys(self, tmp_path):
        executor = self._executor(tmp_path)
        units = [WorkUnit(name=f"m{i}", fn=_square, args=(i,))
                 for i in range(3)]
        assert executor.map(units) == [0, 1, 4]
        state = RunManifest.load(executor.supervisor.manifest.path)
        # Content-derived keys, not the unkeyed fallback.
        assert len(state.done_keys()) == 3
        assert not any(k.startswith("unkeyed:") for k in state.units)

    def test_map_results_identical_to_plain_executor(self, tmp_path):
        from repro.core.executor import ParallelExecutor

        units = [WorkUnit(name=f"d{i}", fn=_square, args=(i,))
                 for i in range(5)]
        plain = ParallelExecutor(1).map(units)
        supervised = self._executor(tmp_path, jobs=2).map(units)
        assert supervised == plain

    def test_resume_serves_from_store_without_rerun(self, tmp_path):
        run_dir = tmp_path / "run"
        store = ResultCache(cache_dir=str(tmp_path / "artifacts"))
        units = [WorkUnit(name=f"r{i}", fn=_square, args=(i,))
                 for i in range(4)]
        keys = [cache_key("se-resume", i) for i in range(4)]

        first = self._executor(run_dir, store=store)
        assert first.map_keyed(units, keys) == [0, 1, 4, 9]

        prior = load_prior_done(str(run_dir / "manifest.jsonl"))
        assert prior == frozenset(keys)
        second = self._executor(run_dir, store=store, prior_done=prior)
        assert second.map_keyed(units, keys) == [0, 1, 4, 9]
        assert second.supervisor.units_resumed == 4
        assert "4 resumed" in second.summary()

    def test_load_prior_done_missing_file(self, tmp_path):
        assert load_prior_done(str(tmp_path / "nope.jsonl")) == frozenset()


class TestConfigValidation:
    def test_rejects_nonpositive_timeout(self):
        with pytest.raises(ValueError):
            SupervisorConfig(unit_timeout_s=0.0)

    def test_quarantine_error_message_truncates(self):
        failures = [
            UnitFailure(unit=f"u{i}", kind=UnitFailure.ERROR,
                        elapsed_s=0.0)
            for i in range(8)
        ]
        err = QuarantinedUnitError(failures, total=10)
        assert "8/10" in str(err)
        assert "+3 more" in str(err)
