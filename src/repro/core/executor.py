"""Deterministic parallel execution of independent experiment work units.

The experiment stack is embarrassingly parallel at well-defined seams:
operating-point measurements (one per ``(function, platform)`` pair),
rate-ladder points, and fault scenarios are mutually independent.  This
module fans such units over worker processes forked for each batch
while guaranteeing that results are *bit-identical* to a serial run.

The determinism contract
------------------------

A :class:`WorkUnit` must be a **pure function of its arguments**: it
receives an explicit root seed and re-derives every RNG substream from
``(seed, name)`` via :class:`~repro.core.rng.RandomStreams` (substreams
are keyed by name, never by call order across units).  Under that
contract the execution schedule cannot influence any draw, so
``jobs=N`` and ``jobs=1`` produce element-wise identical results, and
the serial path simply invokes the same unit functions in-process.

Worker-side instrumentation counters (rate probes, cache hits) are
snapshotted around each unit and the deltas are merged back into the
parent, so CLI footers report identical totals at any ``--jobs``.
"""

from __future__ import annotations

import hashlib
import logging
import multiprocessing
import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..obs import metrics
from . import trace

if TYPE_CHECKING:  # pragma: no cover
    from .cache import ResultCache

logger = logging.getLogger("repro.executor")


@dataclass(frozen=True)
class UnitFailure:
    """Typed record of one failed unit attempt — never an exception.

    The supervised execution path (:meth:`ParallelExecutor.
    map_supervised`) surfaces every way a unit can die as data in the
    result slot: ``timeout`` (the per-unit wall-clock deadline expired
    and the worker was SIGKILLed), ``worker-lost`` (the worker process
    died before shipping a result — OOM kill, crash, chaos injection),
    or ``error`` (the unit function raised).  Supervisors inspect the
    record to decide requeue vs quarantine; nothing propagates as a
    raised exception out of the execution layer.
    """

    unit: str
    kind: str  # "timeout" | "worker-lost" | "error"
    elapsed_s: float
    attempt: int = 1
    message: str = ""
    error_type: str = ""

    TIMEOUT = "timeout"
    WORKER_LOST = "worker-lost"
    ERROR = "error"

    def describe(self) -> str:
        detail = f": {self.error_type}: {self.message}" if self.message else ""
        return (f"{self.unit} {self.kind} after {self.elapsed_s:.2f}s "
                f"(attempt {self.attempt}){detail}")


class QuarantinedUnitError(RuntimeError):
    """A batch finished but some units were quarantined as poison pills.

    Raised by the run-farm supervisor after the *whole batch* has been
    driven to completion — every healthy unit's result is computed and
    stored before this surfaces, so a resume (or a partial-results
    verdict) has maximal progress to build on.  It lives here, beside
    :class:`UnitFailure`, so code that must catch it (the CLI) need not
    import the run farm when no run is supervised.
    """

    def __init__(self, failures: Sequence[UnitFailure], total: int):
        self.failures = list(failures)
        self.total = total
        names = ", ".join(f.unit for f in self.failures[:5])
        more = "" if len(self.failures) <= 5 else (
            f" (+{len(self.failures) - 5} more)")
        super().__init__(
            f"{len(self.failures)}/{total} units quarantined after "
            f"exhausting attempts: {names}{more}"
        )

    def quarantined_units(self) -> List[str]:
        return [f.unit for f in self.failures]


@dataclass(frozen=True)
class WorkUnit:
    """One independent, pure piece of work.

    ``name`` identifies the unit in diagnostics and should be unique
    within a batch; by convention it matches the RNG-substream namespace
    the unit derives its randomness from.  Workers inherit the batch
    when they fork, so a unit need not pickle; its result must.
    """

    name: str
    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def run(self) -> Any:
        return self.fn(*self.args, **self.kwargs)


def _invoke(
    unit: WorkUnit, trace_spec: Optional[Dict[str, Any]] = None
) -> Tuple[Any, Dict[str, Any], Optional[List[trace.TraceEvent]]]:
    """Run a unit in a worker; capture its metric and trace deltas.

    The delta is a full metric-registry delta (counters, gauges,
    histogram observations — see :meth:`repro.obs.metrics.MetricRegistry
    .delta_since`), a plain picklable dict the parent merges in
    submission order.  When the parent traces, the worker records onto a
    fresh buffer under the unit's track (per-track logical clocks
    restart at zero, exactly as they would on first use of that track in
    a serial run) and ships the events back alongside the delta.
    """
    before = metrics.snapshot()
    if trace_spec is None:
        result = unit.run()
        return result, metrics.delta_since(before), None
    recorder = trace.enable(**trace_spec)
    try:
        with trace.track(unit.name):
            result = unit.run()
        return result, metrics.delta_since(before), recorder.events()
    finally:
        trace.disable()


# -- the worker loop ----------------------------------------------------------

# Chaos injection for CI and tests: when set to N, a supervised worker
# whose unit-name hash is divisible by N SIGKILLs itself on the unit's
# FIRST attempt.  Results stay byte-identical — units are pure, so the
# supervisor's requeue recomputes the same value — which is exactly what
# tests/runfarm/test_chaos_matrix.py asserts.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL_NTH"

# Parent-side poll tick of the dispatch loop (seconds): how often it
# checks deadlines and heartbeats while every worker is busy.
_TICK_S = 0.05
# Worker heartbeat period (seconds); the health monitor calls a worker
# hung once beats go stale for several periods.
HEARTBEAT_INTERVAL_S = 0.25


def _chaos_maybe_kill(unit_name: str, attempt: int) -> None:
    nth = os.environ.get(CHAOS_KILL_ENV)
    if not nth or attempt != 1:
        return
    try:
        n = int(nth)
    except ValueError:
        return
    if n > 0:
        digest = int(hashlib.sha256(unit_name.encode("utf-8")).hexdigest(), 16)
        if digest % n == 0:
            os.kill(os.getpid(), signal.SIGKILL)


def _worker_loop(conn, inherited: Sequence[Any], units: Sequence[WorkUnit],
                 attempts: Optional[Sequence[int]],
                 trace_spec: Optional[Dict[str, Any]],
                 heartbeat_dir: Optional[str]) -> None:
    """Child-process entry point: run the units the parent names.

    The worker was forked at the start of the batch, so it already holds
    ``units``: the parent sends one index at a time and the worker
    replies ``("ok", (result, metric_delta, trace_events), cpu_seconds)``
    or ``("error", type_name, message)``, beating a heartbeat file that
    names the unit while it runs.  ``None`` or a closed pipe ends the
    loop and the function returns, so multiprocessing's exit hooks run.
    A SIGKILL (deadline, OOM, chaos) truncates the pipe instead: the
    parent reads EOF as worker-lost.

    ``inherited`` are the parent's ends of this worker's pipe and of the
    pipes to workers forked earlier; closing this process's copies lets
    every worker see EOF once the parent dies.  ``attempts`` is None
    outside supervision, where chaos injection does not apply.
    """
    for end in inherited:
        end.close()
    while True:
        try:
            index = conn.recv()
        except (EOFError, OSError):
            return
        if index is None:
            return
        unit = units[index]
        stop_heartbeat: Optional[Callable[[], None]] = None
        try:
            if heartbeat_dir is not None:
                from ..runfarm.health import start_heartbeat

                stop_heartbeat = start_heartbeat(
                    heartbeat_dir, unit.name, interval_s=HEARTBEAT_INTERVAL_S)
            if attempts is not None:
                _chaos_maybe_kill(unit.name, attempts[index])
            cpu_before = time.process_time()
            outcome = _invoke(unit, trace_spec)
            reply = ("ok", outcome, time.process_time() - cpu_before)
        except Exception as exc:  # noqa: BLE001 — typed record, not a raise
            reply = ("error", type(exc).__name__, str(exc))
        finally:
            if stop_heartbeat is not None:
                stop_heartbeat()
        try:
            conn.send(reply)
        except Exception as exc:  # noqa: BLE001 — the result does not pickle
            try:
                conn.send(("error", type(exc).__name__, str(exc)))
            except OSError:  # the parent is gone
                return


@dataclass
class _Worker:
    """Parent-side state for one forked worker and its unit in flight."""

    proc: Any
    conn: Any
    index: Optional[int] = None  # None while idle
    unit: Optional[WorkUnit] = None
    started: float = 0.0
    reported_slow: bool = False


def _emit_unit_profile(unit: WorkUnit, events: int, delta: Dict[str, Any]) -> None:
    """Per-work-unit profile instant on the parent's current track.

    Emitted at the same point of the merge sequence in both the serial
    and parallel paths, with identical deterministic args, so traces
    stay byte-identical at any ``--jobs``.
    """
    trace.instant(
        "unit", trace.PROBE,
        unit=unit.name,
        events=events,
        probes=metrics.counter_delta(delta, metrics.PROBES),
        sim_events=metrics.counter_delta(delta, metrics.EVENTS_FIRED),
    )


def _run_here(unit: WorkUnit) -> Any:
    """Run one unit in this process, under its own track when tracing."""
    if not trace.TRACING:
        return unit.run()
    recorder = trace.recorder()
    before_appended = recorder.appended
    before = metrics.snapshot()
    with trace.track(unit.name):
        result = unit.run()
    _emit_unit_profile(unit, recorder.appended - before_appended,
                       metrics.delta_since(before))
    return result


def _merge(unit: WorkUnit, delta: Dict[str, Any],
           events: Optional[List[trace.TraceEvent]]) -> None:
    """Fold a worker's deltas into this process, as if the unit ran here."""
    metrics.merge(delta)
    recorder = trace.recorder()
    if events is not None and recorder is not None:
        recorder.extend(events)
        _emit_unit_profile(unit, len(events), delta)


@dataclass(frozen=True)
class UnitProfile:
    """Parent-side performance record of one completed supervised unit.

    ``wall_s`` is measured by the supervisor's clock (dispatch to
    reply), ``cpu_s`` by the worker's own ``time.process_time()``, and
    ``sim_events`` comes from the unit's merged metric delta — so the
    profile is a pure observation that never feeds back into results.
    """

    unit: str
    wall_s: float
    cpu_s: Optional[float]
    sim_events: int

    @property
    def events_per_s(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return self.sim_events / self.wall_s


def usable_cpu_count() -> int:
    """CPUs this *process* may actually run on.

    ``os.cpu_count()`` reports the machine, not the process: under a
    container quota or a taskset/cgroup affinity mask it overstates the
    usable parallelism (a "16-core" CI runner pinned to one CPU would
    record ``cores: 16`` in benchmark artifacts and then gate on scaling
    it cannot have).  Prefer ``os.process_cpu_count`` (3.13+), fall back
    to the scheduling affinity mask where the platform has one, then to
    ``os.cpu_count()``.
    """
    process_cpu_count = getattr(os, "process_cpu_count", None)
    if process_cpu_count is not None:
        count = process_cpu_count()
        if count:
            return count
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        try:
            affinity = sched_getaffinity(0)
        except OSError:
            affinity = None
        if affinity:
            return len(affinity)
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``--jobs`` value: None/1 serial, 0 = all usable cores."""
    if jobs is None:
        return 1
    if jobs == 0:
        return usable_cpu_count()
    return max(1, int(jobs))


# Least wall time (seconds) a batch must be predicted to save by forking;
# a batch predicted to save less runs in process.  -inf forks every batch.
MIN_PARALLEL_SECONDS = 0.0
# EWMA smoothing for the runtime estimates behind the bypass.
_EWMA_ALPHA = 0.5


def _ewma(estimate: Optional[float], sample: float) -> float:
    if estimate is None:
        return sample
    return _EWMA_ALPHA * sample + (1 - _EWMA_ALPHA) * estimate


class ParallelExecutor:
    """Runs batches of :class:`WorkUnit` with a fixed worker budget.

    ``jobs=1`` (the default) executes in-process, in order — the output
    is the reference a parallel run must reproduce.  ``jobs>1`` and
    every supervised batch go through one dispatch loop: at the start of
    the batch it forks ``min(jobs, usable cores, units)`` workers, which
    inherit the batch and the parent's state as of that moment, hands
    them one unit index at a time, and merges their replies in
    submission order.  The workers exit with the batch, so no batch sees
    state a worker built for an earlier one.

    A **serial bypass** runs a plain batch in process when the machine
    has one usable core or when forking is predicted not to pay: two
    EWMAs, of a unit's CPU seconds and of a forked batch's fork cost,
    price the batch both ways (:meth:`_should_bypass`).
    """

    def __init__(self, jobs: int = 1):
        self.jobs = resolve_jobs(jobs)
        self.units_run = 0
        self.bypasses = 0
        # Per-unit wall/CPU/events profiles from the most recent
        # map_supervised call (unit name -> UnitProfile); the run-farm
        # supervisor journals these into the manifest.
        self.last_profiles: Dict[str, UnitProfile] = {}
        self._seconds_per_unit: Optional[float] = None
        self._fork_seconds: Optional[float] = None

    def _effective_workers(self) -> int:
        return min(self.jobs, usable_cpu_count())

    # -- execution ----------------------------------------------------------

    def map(self, units: Sequence[WorkUnit]) -> List[Any]:
        """Run a batch; results (and merged deltas) in submission order.

        A unit whose worker attempt fails (it raised, its result did not
        pickle, its worker died) reruns here at its slot, so an
        exception surfaces exactly as it does at ``jobs=1`` and a dead
        worker costs only its own unit.
        """
        units = list(units)
        self.units_run += len(units)
        serial = self.jobs <= 1 or len(units) <= 1
        if not serial and self._should_bypass(len(units)):
            self.bypasses += 1
            serial = True
        started = time.perf_counter()
        if serial:
            results = [_run_here(unit) for unit in units]
            self._observe(time.perf_counter() - started, len(units))
            return results
        results, cpu = [], []
        for unit, slot in zip(units, self._dispatch(units)):
            if isinstance(slot, UnitFailure):
                results.append(_run_here(unit))
                continue
            (result, delta, events), cpu_s, _wall_s = slot
            _merge(unit, delta, events)
            cpu.append(cpu_s)
            results.append(result)
        self._observe(time.perf_counter() - started, len(units), cpu)
        return results

    def _should_bypass(self, n_units: int) -> bool:
        """Run this batch in process rather than fork for it?

        Forking spreads the batch's work over ``width`` workers, so it
        saves ``work * (1 - 1/width)``, and it costs the fork cost the
        last forked batches measured.  Before any estimate the batch
        forks, which measures both.
        """
        width = min(self._effective_workers(), n_units)
        if width <= 1:
            logger.debug("single usable core; running %d units serially",
                         n_units)
            return True
        if self._seconds_per_unit is None:
            return False
        work = self._seconds_per_unit * n_units
        saving = work * (1 - 1 / width) - (self._fork_seconds or 0.0)
        if saving < MIN_PARALLEL_SECONDS:
            logger.debug(
                "batch of %d units estimated at %.1f ms of work; forking "
                "%d workers would save %.1f ms, running serially", n_units,
                work * 1e3, width, saving * 1e3)
            return True
        return False

    def _observe(self, elapsed: float, n_units: int,
                 cpu_s: Optional[Sequence[float]] = None) -> None:
        """Fold a batch timing into the bypass estimates.

        An in-process batch prices a unit at ``elapsed / n``.  A forked
        batch prices it at the CPU seconds its workers report, and books
        the rest of its wall time, ``elapsed - sum(cpu_s) / width``, as
        the fork cost: forking, worker start-up, IPC, and whatever the
        host lost running the workers side by side.  Only the bypass and
        the slow-worker check read these, never results.
        """
        if cpu_s is None:
            if n_units > 0:
                self._seconds_per_unit = _ewma(self._seconds_per_unit,
                                               elapsed / n_units)
            return
        if not cpu_s:
            return
        width = min(self._effective_workers(), n_units)
        self._seconds_per_unit = _ewma(self._seconds_per_unit,
                                       sum(cpu_s) / len(cpu_s))
        self._fork_seconds = _ewma(self._fork_seconds,
                                   max(0.0, elapsed - sum(cpu_s) / width))

    # -- supervised execution (deadlines, kills, typed failures) -------------

    def map_supervised(
        self,
        units: Sequence[WorkUnit],
        unit_timeout_s: Optional[float] = None,
        heartbeat_dir: Optional[str] = None,
        attempts: Optional[Sequence[int]] = None,
    ) -> List[Union[Any, "UnitFailure"]]:
        """Run one attempt of each unit under fault containment.

        Every unit runs in a forked worker, at any ``jobs``, so the
        supervisor can enforce a per-unit wall-clock deadline with a
        surgical SIGKILL: one hung probe dies alone, and a replacement
        worker takes the rest of the batch.  Results come back in
        submission order, and every way a unit can die is surfaced as a
        :class:`UnitFailure` in its result slot, never an exception.

        Counter deltas and trace events from *successful* units merge in
        submission order (exactly like :meth:`map`), so a supervised run
        of healthy units is byte-identical to a plain one.
        """
        units = list(units)
        self.units_run += len(units)
        self.last_profiles = {}
        if not units:
            return []
        started = time.perf_counter()
        slots = self._dispatch(units, list(attempts or [1] * len(units)),
                               unit_timeout_s, heartbeat_dir)
        results: List[Union[Any, UnitFailure]] = []
        for unit, slot in zip(units, slots):
            if isinstance(slot, UnitFailure):
                results.append(slot)
                continue
            (result, delta, events), cpu_s, wall_s = slot
            _merge(unit, delta, events)
            self.last_profiles[unit.name] = UnitProfile(
                unit=unit.name, wall_s=wall_s, cpu_s=cpu_s,
                sim_events=metrics.counter_delta(delta, metrics.EVENTS_FIRED))
            results.append(result)
        self._observe(time.perf_counter() - started, len(units),
                      [p.cpu_s for p in self.last_profiles.values()])
        return results

    # -- the dispatch loop ----------------------------------------------------

    def _dispatch(
        self,
        units: List[WorkUnit],
        attempts: Optional[List[int]] = None,
        unit_timeout_s: Optional[float] = None,
        heartbeat_dir: Optional[str] = None,
    ) -> List[Any]:
        """One attempt of each unit on workers forked for this batch.

        Returns, per slot, ``(worker outcome, cpu seconds, wall seconds)``
        or a :class:`UnitFailure`; nothing is merged here, so a caller
        that reruns a failed unit cannot double-count.  A worker past
        the deadline is SIGKILLed, and a worker that dies is replaced
        while units remain.
        """
        ctx = multiprocessing.get_context("fork")
        recorder = trace.recorder()
        trace_spec = None
        if recorder is not None:
            trace_spec = {"capacity": recorder.capacity,
                          "metrics_interval_s": recorder.metrics_interval_s}
        monitor = None
        if heartbeat_dir is not None:
            from ..runfarm.health import HealthMonitor

            monitor = HealthMonitor(heartbeat_dir)
        tries = attempts or [1] * len(units)
        width = min(self._effective_workers(), len(units))
        slots: List[Any] = [None] * len(units)
        workers: List[_Worker] = []
        next_index = 0

        def fork() -> _Worker:
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_loop,
                args=(child_conn, [parent_conn, *(w.conn for w in workers)],
                      units, attempts, trace_spec, heartbeat_dir),
                daemon=True)
            proc.start()
            child_conn.close()
            workers.append(_Worker(proc=proc, conn=parent_conn))
            return workers[-1]

        try:
            while True:
                while next_index < len(units):
                    idle = next((w for w in workers if w.index is None), None)
                    if idle is None:
                        if len(workers) >= width:
                            break
                        idle = fork()
                    idle.index, idle.unit = next_index, units[next_index]
                    idle.started, idle.reported_slow = time.perf_counter(), False
                    next_index += 1
                    try:
                        idle.conn.send(idle.index)
                    except OSError:  # it died while idle; wait() sees EOF
                        pass
                busy = {w.conn: w for w in workers if w.index is not None}
                if not busy:
                    return slots
                lost: List[Tuple[_Worker, str]] = []
                for conn in mp_connection.wait(list(busy), timeout=_TICK_S):
                    worker = busy[conn]
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        workers.remove(worker)
                        lost.append((worker, UnitFailure.WORKER_LOST))
                        continue
                    elapsed = time.perf_counter() - worker.started
                    if reply[0] == "ok":
                        slots[worker.index] = (reply[1], reply[2], elapsed)
                    else:
                        slots[worker.index] = UnitFailure(
                            unit=worker.unit.name, kind=UnitFailure.ERROR,
                            elapsed_s=elapsed, attempt=tries[worker.index],
                            message=reply[2], error_type=reply[1])
                    worker.index = worker.unit = None
                if unit_timeout_s is not None:
                    now = time.perf_counter()
                    for worker in [w for w in workers if w.index is not None
                                   and now - w.started > unit_timeout_s]:
                        worker.proc.kill()
                        workers.remove(worker)
                        lost.append((worker, UnitFailure.TIMEOUT))
                # A dead or killed worker costs only its unit; the next
                # pass forks a replacement if units remain.
                for worker, kind in lost:
                    elapsed = time.perf_counter() - worker.started
                    worker.proc.join(timeout=5.0)
                    worker.conn.close()
                    if kind == UnitFailure.TIMEOUT:
                        message = f"exceeded {unit_timeout_s:.2f}s deadline"
                        counter, event = metrics.RUNFARM_TIMEOUTS, "timeout"
                    else:
                        message = (f"worker exited with code "
                                   f"{worker.proc.exitcode}")
                        counter = metrics.RUNFARM_WORKER_LOST
                        event = "worker_lost"
                    metrics.counter(counter).inc()
                    logger.warning("unit %s %s: %s (worker %s)",
                                   worker.unit.name, kind, message,
                                   worker.proc.pid)
                    if trace.TRACING:
                        trace.instant(f"runfarm.{event}", trace.RUNFARM,
                                      unit=worker.unit.name,
                                      attempt=tries[worker.index])
                    slots[worker.index] = UnitFailure(
                        unit=worker.unit.name, kind=kind, elapsed_s=elapsed,
                        attempt=tries[worker.index], message=message)
                if monitor is not None:
                    self._check_health(
                        monitor, [w for w in workers if w.index is not None])
        finally:
            # Idle workers return from their loop (their exit hooks run);
            # busy ones are only still running if the parent failed.
            for worker in workers:
                if worker.index is None:
                    try:
                        worker.conn.send(None)
                    except OSError:
                        pass
                else:
                    worker.proc.kill()
            for worker in workers:
                worker.proc.join(timeout=5.0)
                if worker.proc.exitcode is None:
                    worker.proc.kill()
                    worker.proc.join()
                worker.conn.close()

    def _check_health(self, monitor, busy: Iterable[_Worker]) -> None:
        """Fold a heartbeat scan into counters; log hung/slow workers.

        ``hung`` means the worker's heartbeat went stale (the process is
        dead, stopped, or wedged hard enough that its beat thread cannot
        run) — distinct from ``slow``, a live worker whose unit is just
        taking much longer than the batch EWMA predicts.
        """
        beats = monitor.scan()
        for state in busy:
            status = beats.get(state.unit.name)
            elapsed = time.perf_counter() - state.started
            expected = self._seconds_per_unit
            if status is not None and status.stale and elapsed > 1.0:
                if not state.reported_slow:
                    state.reported_slow = True
                    metrics.counter(metrics.RUNFARM_WORKERS_HUNG).inc()
                    logger.warning(
                        "worker %s (unit %s) looks hung: heartbeat stale "
                        "for %.1fs", state.proc.pid, state.unit.name,
                        status.age_s)
            elif (expected is not None and elapsed > max(4 * expected, 1.0)
                    and not state.reported_slow):
                state.reported_slow = True
                metrics.counter(metrics.RUNFARM_WORKERS_SLOW).inc()
                logger.info(
                    "worker %s (unit %s) is slow: %.1fs vs ~%.2fs expected "
                    "(heartbeat healthy)", state.proc.pid, state.unit.name,
                    elapsed, expected)

    # -- keyed (cache-aware) execution --------------------------------------

    def map_keyed(
        self,
        units: Sequence[WorkUnit],
        keys: Sequence[str],
        store: Optional["ResultCache"] = None,
    ) -> List[Any]:
        """Run a batch through the content-addressed cache.

        Each unit is paired with its cache key: hits are served from the
        cache in the parent (one lookup each, never submitted), misses
        are executed and the computed results are stored back — so a
        later batch (or CLI verb sharing a ``--cache-dir``) reuses them.
        Results come back in unit order either way.  The run farm's
        :class:`~repro.runfarm.supervisor.SupervisedExecutor` overrides
        this seam to add manifests, retries, and quarantine.
        """
        if len(units) != len(keys):
            raise ValueError("units and keys must have equal length")
        if store is None:
            from .cache import get_cache

            store = get_cache()
        results: List[Any] = [None] * len(units)
        pending: List[int] = []
        for index, key in enumerate(keys):
            found, value = store.get(key)
            if found:
                results[index] = value
            else:
                pending.append(index)
        for index, value in zip(pending,
                                self.map([units[i] for i in pending])):
            store.put(keys[index], value)
            results[index] = value
        return results


def unit_content_key(unit: WorkUnit) -> Optional[str]:
    """A content-addressed key derived from the unit's own pickle bytes.

    Units submitted through :meth:`ParallelExecutor.map` carry no
    explicit cache key; for manifest bookkeeping (and resume) the run
    farm derives one from the pickled ``(fn, args, kwargs)`` closure —
    pure units with identical content hash identically across runs of
    the same code.  Returns ``None`` for unpicklable units, which are
    then executed unconditionally.
    """
    from .cache import cache_key

    try:
        payload = pickle.dumps(unit, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:  # noqa: BLE001 — closures etc.
        return None
    return cache_key("unit-pickle", hashlib.sha256(payload).hexdigest())


def map_cached(
    executor: ParallelExecutor,
    units: Sequence[WorkUnit],
    keys: Sequence[str],
    store: Optional["ResultCache"] = None,
) -> List[Any]:
    """Run a batch through the content-addressed cache.

    Thin wrapper over :meth:`ParallelExecutor.map_keyed` — the seam the
    run farm's :class:`~repro.runfarm.supervisor.SupervisedExecutor`
    overrides, so every experiment that funnels units through here gains
    manifests, per-unit timeouts, retries, and quarantine for free when
    the CLI installs a supervised executor.
    """
    return executor.map_keyed(units, keys, store)
