"""Worker heartbeats: telling a hung worker from a merely slow one.

A wall-clock deadline alone cannot distinguish "this unit is genuinely
expensive" from "this worker is wedged" — both look like elapsed time.
Heartbeats add the missing signal: while it runs a unit, every
supervised worker runs a tiny daemon thread that rewrites its own
heartbeat file (atomic rename), naming the unit, every ``interval_s``
seconds.  The parent-side :class:`HealthMonitor` scans
the directory and classifies:

* **healthy** — beats arriving on schedule;
* **slow** — beating fine but the unit has far outlived the batch's
  per-unit runtime estimate (the executor logs it, counts it, and lets
  it run to its deadline);
* **hung** — beats stale for several intervals: the process is dead,
  SIGSTOPped, or wedged below the GIL.  The deadline's SIGKILL is
  coming; the monitor makes the distinction visible in counters and
  logs first.

Heartbeat files are process-local (named by pid), written atomically,
and deleted when the unit finishes, so a scan only ever sees busy workers
plus the corpses of killed ones (stale files whose pid is gone are
swept).  Each beat also records the writing process's start time (the
Linux ``/proc`` ``starttime`` field), so a beat file whose pid has been
recycled by an unrelated process is recognized as a corpse too instead
of masquerading as a healthy worker.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from ..obs import metrics

DEFAULT_INTERVAL_S = 0.25
# Beats older than this many intervals mean the worker can no longer
# schedule a Python thread: call it hung, not slow.
STALE_INTERVALS = 4.0


@dataclass
class WorkerBeat:
    """One worker's latest heartbeat, as seen by the parent."""

    pid: int
    unit: str
    seq: int
    age_s: float
    interval_s: float
    alive: bool

    @property
    def stale(self) -> bool:
        return self.age_s > STALE_INTERVALS * self.interval_s


def _beat_path(heartbeat_dir: str, pid: int) -> str:
    return os.path.join(heartbeat_dir, f"{pid}.json")


def _proc_start_id(pid: int) -> Optional[str]:
    """The process's start time in clock ticks (Linux ``/proc``).

    Together with the pid this identifies one process *incarnation*: a
    recycled pid gets a different start time, so a beat file stamped
    with the original worker's start id can be told apart from an
    unrelated process that happens to wear the same pid.  Returns
    ``None`` where ``/proc`` is unavailable (non-Linux), in which case
    the monitor falls back to pid-liveness alone.
    """
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            data = handle.read()
        # Field 22 (starttime).  The comm field (2) may contain spaces
        # and parentheses, so split after the LAST ')': the remainder
        # starts at field 3.
        rest = data.rsplit(b")", 1)[1].split()
        return rest[19].decode("ascii")
    except (OSError, IndexError, UnicodeDecodeError):
        return None


def write_beat(heartbeat_dir: str, unit: str, seq: int,
               interval_s: float = DEFAULT_INTERVAL_S,
               pid: Optional[int] = None) -> None:
    """Atomically publish one heartbeat (rename over the previous)."""
    pid = pid if pid is not None else os.getpid()
    os.makedirs(heartbeat_dir, exist_ok=True)
    payload = {
        "pid": pid,
        "unit": unit,
        "seq": seq,
        "interval_s": interval_s,
        "ts_unix": time.time(),
        "proc_start": _proc_start_id(pid),
    }
    fd, tmp = tempfile.mkstemp(dir=heartbeat_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        os.replace(tmp, _beat_path(heartbeat_dir, pid))
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


def clear_beat(heartbeat_dir: str, pid: Optional[int] = None) -> None:
    """Remove this worker's heartbeat file (clean exit)."""
    pid = pid if pid is not None else os.getpid()
    try:
        os.unlink(_beat_path(heartbeat_dir, pid))
    except OSError:
        pass


def start_heartbeat(heartbeat_dir: str, unit: str,
                    interval_s: float = DEFAULT_INTERVAL_S
                    ) -> Callable[[], None]:
    """Begin beating from a daemon thread; returns a stop function.

    The first beat is written synchronously (so the parent can see the
    unit name immediately), then a daemon thread re-beats every
    ``interval_s``.  The returned stopper ends the thread and removes
    the heartbeat file — a SIGKILLed worker never reaches it, leaving a
    stale file behind, which is exactly the hung signal.
    """
    write_beat(heartbeat_dir, unit, seq=0, interval_s=interval_s)
    stop_event = threading.Event()

    def _beat_loop() -> None:
        seq = 1
        while not stop_event.wait(interval_s):
            write_beat(heartbeat_dir, unit, seq=seq, interval_s=interval_s)
            seq += 1

    thread = threading.Thread(target=_beat_loop, name="runfarm-heartbeat",
                              daemon=True)
    thread.start()

    def _stop() -> None:
        stop_event.set()
        thread.join(timeout=2 * interval_s)
        clear_beat(heartbeat_dir)

    return _stop


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover — exists, not ours
        return True
    return True


class HealthMonitor:
    """Parent-side scanner over a heartbeat directory."""

    def __init__(self, heartbeat_dir: str):
        self.heartbeat_dir = heartbeat_dir
        self.total_beats = 0
        # Keyed by (pid, unit): a worker runs many units, and each unit's
        # beats count from 0.
        self._last_seq: Dict[Tuple[int, str], int] = {}

    def scan(self, now: Optional[float] = None) -> Dict[str, WorkerBeat]:
        """Read every heartbeat file; returns beats keyed by unit name.

        Also folds newly observed beats into ``total_beats`` (and the
        ``runfarm.heartbeats`` counter) and sweeps files whose pid no
        longer exists — dead workers' corpses must not masquerade as
        hung workers forever.
        """
        now = now if now is not None else time.time()
        beats: Dict[str, WorkerBeat] = {}
        if not os.path.isdir(self.heartbeat_dir):
            return beats
        for name in sorted(os.listdir(self.heartbeat_dir)):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.heartbeat_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue  # mid-rename or torn file: next scan sees it
            pid = int(payload.get("pid", 0))
            unit = str(payload.get("unit", ""))
            seq = int(payload.get("seq", 0))
            alive = _pid_alive(pid)
            if alive:
                # Pid-reuse hazard: the pid may be alive but belong to a
                # different process incarnation than the one that wrote
                # the beat.  Compare recorded vs current start time and
                # treat a mismatch as a corpse wearing a recycled pid.
                recorded_start = payload.get("proc_start")
                if recorded_start is not None:
                    current_start = _proc_start_id(pid)
                    if (current_start is not None
                            and current_start != recorded_start):
                        alive = False
            if not alive:
                try:
                    os.unlink(path)
                except OSError:
                    pass
            new_beats = seq - self._last_seq.get((pid, unit), -1)
            if new_beats > 0:
                self.total_beats += new_beats
                metrics.counter(metrics.RUNFARM_HEARTBEATS).inc(new_beats)
            self._last_seq[(pid, unit)] = seq
            beats[unit] = WorkerBeat(
                pid=pid,
                unit=unit,
                seq=seq,
                age_s=max(0.0, now - float(payload.get("ts_unix", now))),
                interval_s=float(payload.get("interval_s",
                                             DEFAULT_INTERVAL_S)),
                alive=alive,
            )
        return beats
