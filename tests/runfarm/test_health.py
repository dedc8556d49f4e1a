"""Worker heartbeats: beat files, staleness, and the parent-side scan."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.obs import metrics
from repro.runfarm import health
from repro.runfarm.health import (
    HealthMonitor,
    WorkerBeat,
    clear_beat,
    start_heartbeat,
    write_beat,
)


@pytest.fixture(autouse=True)
def _fresh_counters():
    metrics.reset()
    yield
    metrics.reset()


class TestBeatFiles:
    def test_write_and_scan_round_trip(self, tmp_path):
        write_beat(str(tmp_path), "unit-a", seq=3, interval_s=0.1)
        monitor = HealthMonitor(str(tmp_path))
        beats = monitor.scan()
        assert set(beats) == {"unit-a"}
        beat = beats["unit-a"]
        assert beat.pid == os.getpid()
        assert beat.seq == 3
        assert beat.alive
        assert not beat.stale

    def test_clear_beat_removes_file(self, tmp_path):
        write_beat(str(tmp_path), "unit-a", seq=0)
        clear_beat(str(tmp_path))
        assert HealthMonitor(str(tmp_path)).scan() == {}

    def test_no_tmp_litter(self, tmp_path):
        for seq in range(5):
            write_beat(str(tmp_path), "unit-a", seq=seq)
        leftovers = [n for n in os.listdir(tmp_path) if n.endswith(".tmp")]
        assert leftovers == []

    def test_missing_dir_scans_empty(self, tmp_path):
        monitor = HealthMonitor(str(tmp_path / "nope"))
        assert monitor.scan() == {}


class TestStaleness:
    def test_fresh_beat_is_not_stale(self):
        beat = WorkerBeat(pid=1, unit="u", seq=0, age_s=0.1,
                          interval_s=0.25, alive=True)
        assert not beat.stale

    def test_old_beat_is_stale(self):
        age = health.STALE_INTERVALS * 0.25 + 0.01
        beat = WorkerBeat(pid=1, unit="u", seq=0, age_s=age,
                          interval_s=0.25, alive=True)
        assert beat.stale

    def test_scan_reports_age_from_timestamp(self, tmp_path):
        write_beat(str(tmp_path), "unit-a", seq=0, interval_s=0.1)
        monitor = HealthMonitor(str(tmp_path))
        # Pretend two seconds elapsed since the beat was written.
        beats = monitor.scan(now=time.time() + 2.0)
        assert beats["unit-a"].age_s >= 2.0
        assert beats["unit-a"].stale


class TestStalenessBoundary:
    """The stale classification flips strictly ABOVE the threshold."""

    def test_exactly_at_threshold_is_not_stale(self):
        interval = 0.25
        beat = WorkerBeat(pid=1, unit="u", seq=0,
                          age_s=health.STALE_INTERVALS * interval,
                          interval_s=interval, alive=True)
        assert not beat.stale  # strict >: the boundary itself is healthy

    def test_just_above_threshold_is_stale(self):
        interval = 0.25
        beat = WorkerBeat(pid=1, unit="u", seq=0,
                          age_s=health.STALE_INTERVALS * interval * 1.01,
                          interval_s=interval, alive=True)
        assert beat.stale

    def test_threshold_scales_with_interval(self):
        # A 1.1s-old beat is stale for interval 0.25 (threshold 1.0s)
        # but healthy for interval 0.5 (threshold 2.0s).
        fast = WorkerBeat(pid=1, unit="u", seq=0, age_s=1.1,
                          interval_s=0.25, alive=True)
        slow = WorkerBeat(pid=1, unit="u", seq=0, age_s=1.1,
                          interval_s=0.5, alive=True)
        assert fast.stale and not slow.stale


class TestSlowVersusHung:
    """The executor's classification: stale heartbeat = hung, healthy
    heartbeat but way past the runtime estimate = slow."""

    def _executor_with_estimate(self, seconds_per_unit):
        from repro.core.executor import ParallelExecutor

        executor = ParallelExecutor(1)
        executor._seconds_per_unit = seconds_per_unit
        return executor

    def _running_state(self, unit_name, started_ago):
        import types

        from repro.core.executor import _Running, WorkUnit

        return _Running(
            index=0,
            unit=WorkUnit(name=unit_name, fn=lambda: None),
            attempt=1,
            proc=types.SimpleNamespace(pid=12345),
            started=time.perf_counter() - started_ago,
        )

    class _StubMonitor:
        def __init__(self, beats):
            self._beats = beats

        def scan(self):
            return self._beats

    def test_stale_heartbeat_is_hung(self):
        executor = self._executor_with_estimate(0.1)
        state = self._running_state("u", started_ago=2.0)
        beats = {"u": WorkerBeat(pid=12345, unit="u", seq=5, age_s=9.0,
                                 interval_s=0.25, alive=True)}
        executor._check_health(self._StubMonitor(beats), {"c": state}, None)
        assert metrics.counter(metrics.RUNFARM_WORKERS_HUNG).value == 1
        assert metrics.counter(metrics.RUNFARM_WORKERS_SLOW).value == 0
        assert state.reported_slow  # reported once, not every scan

    def test_healthy_heartbeat_past_estimate_is_slow(self):
        executor = self._executor_with_estimate(0.1)
        state = self._running_state("u", started_ago=2.0)
        beats = {"u": WorkerBeat(pid=12345, unit="u", seq=5, age_s=0.1,
                                 interval_s=0.25, alive=True)}
        executor._check_health(self._StubMonitor(beats), {"c": state}, None)
        assert metrics.counter(metrics.RUNFARM_WORKERS_SLOW).value == 1
        assert metrics.counter(metrics.RUNFARM_WORKERS_HUNG).value == 0

    def test_on_schedule_unit_is_neither(self):
        executor = self._executor_with_estimate(10.0)
        state = self._running_state("u", started_ago=0.5)
        beats = {"u": WorkerBeat(pid=12345, unit="u", seq=5, age_s=0.1,
                                 interval_s=0.25, alive=True)}
        executor._check_health(self._StubMonitor(beats), {"c": state}, None)
        assert metrics.counter(metrics.RUNFARM_WORKERS_SLOW).value == 0
        assert metrics.counter(metrics.RUNFARM_WORKERS_HUNG).value == 0

    def test_reported_only_once_per_unit(self):
        executor = self._executor_with_estimate(0.1)
        state = self._running_state("u", started_ago=2.0)
        beats = {"u": WorkerBeat(pid=12345, unit="u", seq=5, age_s=0.1,
                                 interval_s=0.25, alive=True)}
        monitor = self._StubMonitor(beats)
        executor._check_health(monitor, {"c": state}, None)
        executor._check_health(monitor, {"c": state}, None)
        assert metrics.counter(metrics.RUNFARM_WORKERS_SLOW).value == 1


class TestPidReuse:
    """A recycled pid must read as a corpse, not a healthy worker."""

    def test_beat_records_process_start_id(self, tmp_path):
        write_beat(str(tmp_path), "unit-a", seq=0)
        payload = json.loads((tmp_path / f"{os.getpid()}.json").read_text())
        assert payload["proc_start"] == health._proc_start_id(os.getpid())
        assert payload["proc_start"] is not None  # Linux CI has /proc

    def test_mismatched_start_id_is_swept_as_corpse(self, tmp_path):
        # Forge a beat whose pid is alive (ours) but whose recorded
        # incarnation is a different process: exactly what pid reuse
        # looks like after the original worker died.
        write_beat(str(tmp_path), "unit-a", seq=0)
        path = tmp_path / f"{os.getpid()}.json"
        payload = json.loads(path.read_text())
        payload["proc_start"] = "999999999"  # not our starttime
        path.write_text(json.dumps(payload))
        monitor = HealthMonitor(str(tmp_path))
        beats = monitor.scan()
        assert not beats["unit-a"].alive
        assert monitor.scan() == {}  # the corpse file was unlinked

    def test_matching_start_id_stays_alive(self, tmp_path):
        write_beat(str(tmp_path), "unit-a", seq=0)
        beats = HealthMonitor(str(tmp_path)).scan()
        assert beats["unit-a"].alive

    def test_missing_proc_start_falls_back_to_pid_liveness(self, tmp_path):
        # Old-format beats (no proc_start) keep the pre-fix behavior.
        write_beat(str(tmp_path), "unit-a", seq=0)
        path = tmp_path / f"{os.getpid()}.json"
        payload = json.loads(path.read_text())
        del payload["proc_start"]
        path.write_text(json.dumps(payload))
        beats = HealthMonitor(str(tmp_path)).scan()
        assert beats["unit-a"].alive

    def test_proc_start_id_none_for_dead_pid(self):
        assert health._proc_start_id(2**31 - 1) is None


class TestDeadWorkerSweep:
    def test_dead_pid_file_is_swept(self, tmp_path):
        # A pid that cannot exist: max pid is bounded well below 2**31.
        dead_pid = 2**31 - 1
        write_beat(str(tmp_path), "corpse", seq=0, pid=dead_pid)
        monitor = HealthMonitor(str(tmp_path))
        beats = monitor.scan()
        assert not beats["corpse"].alive
        # The corpse's file was unlinked; the next scan is clean.
        assert monitor.scan() == {}

    def test_torn_file_is_skipped(self, tmp_path):
        path = tmp_path / f"{os.getpid()}.json"
        path.write_text('{"pid": ')
        assert HealthMonitor(str(tmp_path)).scan() == {}


class TestHeartbeatThread:
    def test_start_stop_lifecycle(self, tmp_path):
        stop = start_heartbeat(str(tmp_path), "unit-a", interval_s=0.02)
        # The first beat is synchronous.
        monitor = HealthMonitor(str(tmp_path))
        assert "unit-a" in monitor.scan()
        time.sleep(0.08)
        beats = monitor.scan()
        assert beats["unit-a"].seq >= 1  # the thread re-beat
        stop()
        assert monitor.scan() == {}  # clean exit removes the file

    def test_beats_counted(self, tmp_path):
        stop = start_heartbeat(str(tmp_path), "unit-a", interval_s=0.02)
        try:
            time.sleep(0.08)
            monitor = HealthMonitor(str(tmp_path))
            monitor.scan()
            assert monitor.total_beats >= 1
            assert metrics.counter(metrics.RUNFARM_HEARTBEATS).value >= 1
        finally:
            stop()

    def test_beat_payload_shape(self, tmp_path):
        write_beat(str(tmp_path), "unit-a", seq=2, interval_s=0.5)
        path = tmp_path / f"{os.getpid()}.json"
        payload = json.loads(path.read_text())
        assert payload["unit"] == "unit-a"
        assert payload["seq"] == 2
        assert payload["interval_s"] == 0.5
        assert "ts_unix" in payload
