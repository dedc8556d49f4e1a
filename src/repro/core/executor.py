"""Deterministic parallel execution of independent experiment work units.

The experiment stack is embarrassingly parallel at well-defined seams:
operating-point measurements (one per ``(function, platform)`` pair),
rate-ladder points, and fault scenarios are mutually independent.  This
module fans such units across a :class:`concurrent.futures.
ProcessPoolExecutor` while guaranteeing that results are *bit-identical*
to a serial run.

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
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
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
    """One independent, pure, picklable piece of work.

    ``name`` identifies the unit in diagnostics and should be unique
    within a batch; by convention it matches the RNG-substream namespace
    the unit derives its randomness from.
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
    """Worker entry point: run a unit; capture metric + trace deltas.

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


def _invoke_chunk(
    units: Sequence[WorkUnit], trace_spec: Optional[Dict[str, Any]] = None
) -> List[Tuple[Any, Dict[str, Any], Optional[List[trace.TraceEvent]]]]:
    """Run several units in one worker round trip (chunked submission).

    Each unit still gets its own metric snapshot and (when tracing) its
    own fresh recorder, so the per-unit tuples shipped back are exactly
    what per-unit submission would have produced — chunking changes the
    IPC count, never the payload.
    """
    return [_invoke(unit, trace_spec) for unit in units]


# -- supervised execution (run-farm substrate) -------------------------------

# Chaos injection for CI and tests: when set to N, a supervised worker
# whose unit-name hash is divisible by N SIGKILLs itself on its FIRST
# attempt.  Results stay byte-identical — units are pure, so the
# supervisor's requeue recomputes the same value — which is exactly what
# the chaos-smoke CI job asserts.
CHAOS_KILL_ENV = "REPRO_CHAOS_KILL_NTH"

# Parent-side poll tick for the supervised wait loop (seconds).
_SUPERVISED_TICK_S = 0.05
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


def _supervised_worker(conn, unit: WorkUnit, attempt: int,
                       trace_spec: Optional[Dict[str, Any]],
                       heartbeat_dir: Optional[str],
                       heartbeat_interval_s: float) -> None:
    """Child-process entry point for one supervised unit.

    Runs exactly one unit, ships ``("ok", (result, metric_delta,
    trace_events), cpu_seconds)`` or ``("error", type_name, message)``
    back over the pipe, and beats a heartbeat file for the parent's
    health monitor while the unit runs.  A SIGKILL (timeout enforcement,
    OOM, chaos) simply truncates the pipe — the parent reads EOF as
    worker-lost.
    """
    stop_heartbeat: Optional[Callable[[], None]] = None
    try:
        if heartbeat_dir is not None:
            from ..runfarm.health import start_heartbeat

            stop_heartbeat = start_heartbeat(
                heartbeat_dir, unit.name, interval_s=heartbeat_interval_s)
        _chaos_maybe_kill(unit.name, attempt)
        cpu_before = time.process_time()
        outcome = _invoke(unit, trace_spec)
        cpu_s = time.process_time() - cpu_before
        conn.send(("ok", outcome, cpu_s))
    except BaseException as exc:  # noqa: BLE001 — typed record, not a raise
        try:
            conn.send(("error", type(exc).__name__, str(exc)))
        except Exception:  # noqa: BLE001 — result unpicklable / pipe gone
            pass
    finally:
        if stop_heartbeat is not None:
            stop_heartbeat()
        try:
            conn.close()
        except OSError:
            pass


class _InProcessTimeout(Exception):
    """SIGALRM-driven deadline hit on the in-process fallback path."""


@dataclass
class _Running:
    """Parent-side state for one in-flight supervised worker."""

    index: int
    unit: WorkUnit
    attempt: int
    proc: Any
    started: float
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


@dataclass(frozen=True)
class UnitProfile:
    """Parent-side performance record of one completed supervised unit.

    ``wall_s`` is measured by the supervisor's clock (spawn to reap),
    ``cpu_s`` by the worker's own ``time.process_time()``, and
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


# Estimated total batch work (seconds) below which fork + IPC overhead
# beats any parallel win and the batch runs serially instead.
MIN_PARALLEL_SECONDS = 0.05
# Chunked submission: aim for this many chunks per worker, balancing
# per-task IPC against load-balance granularity.
_CHUNKS_PER_WORKER = 4
# EWMA smoothing for the per-unit runtime estimate behind the bypass.
_EWMA_ALPHA = 0.5


class ParallelExecutor:
    """Runs batches of :class:`WorkUnit` with a fixed worker budget.

    ``jobs=1`` (the default) executes in-process, in order — the output
    is the reference a parallel run must reproduce.  ``jobs>1`` fans the
    batch over a worker-process pool; results always come back in
    submission order.  Batches whose units cannot be pickled (e.g.
    closures) fall back to the serial path instead of failing.

    Three things keep ``--jobs`` a speedup instead of a slowdown:

    * **Pool reuse** — the process pool is created once (lazily) and
      reused across every ``map`` call until :meth:`close`, so a study
      with many phases pays the fork cost once, not per phase.
    * **Chunked submission** — a batch is shipped as a handful of
      chunks per worker rather than one IPC round trip per unit.
    * **Serial bypass** — when the machine has one usable core, or an
      EWMA of observed per-unit runtime says the whole batch is worth
      less than ~50 ms, forking cannot win and the batch runs in
      process (``serial_bypass=False`` disables the heuristic, for
      tests and benchmarks that must exercise the pool).

    The executor is a context manager; exiting (or :meth:`close`)
    shuts the pool down.  A worker that dies mid-batch (OOM-killed,
    crashed interpreter) raises ``BrokenProcessPool`` inside the pool;
    work units are pure, so the batch transparently reruns serially and
    a fresh pool is built on the next parallel call.
    """

    def __init__(self, jobs: int = 1, serial_bypass: bool = True):
        self.jobs = resolve_jobs(jobs)
        self.serial_bypass = serial_bypass
        self.units_run = 0
        self.fallbacks = 0
        self.bypasses = 0
        self.pool_restarts = 0
        # Per-unit wall/CPU/events profiles from the most recent
        # map_supervised call (unit name -> UnitProfile); the run-farm
        # supervisor journals these into the manifest.
        self.last_profiles: Dict[str, UnitProfile] = {}
        self._pool: Optional[ProcessPoolExecutor] = None
        self._seconds_per_unit: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Shut down the worker pool (the executor stays usable: a later
        parallel ``map`` simply builds a fresh pool)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            workers = self._effective_workers()
            logger.debug("starting process pool with %d workers", workers)
            self._pool = ProcessPoolExecutor(max_workers=workers)
        return self._pool

    def _effective_workers(self) -> int:
        return min(self.jobs, usable_cpu_count())

    # -- execution ----------------------------------------------------------

    def map(self, units: Sequence[WorkUnit]) -> List[Any]:
        units = list(units)
        self.units_run += len(units)
        serial = self.jobs <= 1 or len(units) <= 1
        if not serial and not self._picklable(units):
            self.fallbacks += 1
            logger.debug("batch of %d units is not picklable; running serially",
                         len(units))
            serial = True
        if not serial and self.serial_bypass and self._should_bypass(len(units)):
            self.bypasses += 1
            serial = True
        started = time.perf_counter()
        if serial:
            results = self._map_serial(units)
            self._observe(time.perf_counter() - started, len(units), workers=1)
        else:
            results = self._map_parallel(units)
            self._observe(time.perf_counter() - started, len(units),
                          workers=self._effective_workers())
        return results

    def _should_bypass(self, n_units: int) -> bool:
        if self._effective_workers() <= 1:
            logger.debug("single usable core; running %d units serially",
                         n_units)
            return True
        if (self._seconds_per_unit is not None
                and self._seconds_per_unit * n_units < MIN_PARALLEL_SECONDS):
            logger.debug(
                "batch of %d units estimated at %.1f ms total; below the "
                "%.0f ms fork threshold, running serially", n_units,
                self._seconds_per_unit * n_units * 1e3,
                MIN_PARALLEL_SECONDS * 1e3)
            return True
        return False

    def _observe(self, elapsed: float, n_units: int, workers: int) -> None:
        """Fold a batch timing into the per-unit runtime EWMA.

        A parallel batch's wall time is divided across ``workers``, so
        the per-unit cost it implies is ``elapsed * workers / n``.  Only
        the bypass heuristic reads this — never results.
        """
        if n_units <= 0:
            return
        sample = elapsed * workers / n_units
        if self._seconds_per_unit is None:
            self._seconds_per_unit = sample
        else:
            self._seconds_per_unit = (_EWMA_ALPHA * sample
                                      + (1 - _EWMA_ALPHA) * self._seconds_per_unit)

    def _map_serial(self, units: Sequence[WorkUnit]) -> List[Any]:
        if not trace.TRACING:
            return [unit.run() for unit in units]
        recorder = trace.recorder()
        results: List[Any] = []
        for unit in units:
            before_appended = recorder.appended
            before = metrics.snapshot()
            with trace.track(unit.name):
                result = unit.run()
            _emit_unit_profile(unit, recorder.appended - before_appended,
                               metrics.delta_since(before))
            results.append(result)
        return results

    def _map_parallel(self, units: Sequence[WorkUnit]) -> List[Any]:
        recorder = trace.recorder()
        trace_spec = None
        if recorder is not None:
            trace_spec = {"capacity": recorder.capacity,
                          "metrics_interval_s": recorder.metrics_interval_s}
        workers = self._effective_workers()
        chunk_size = max(1, -(-len(units) // (workers * _CHUNKS_PER_WORKER)))
        chunks = [list(units[i:i + chunk_size])
                  for i in range(0, len(units), chunk_size)]
        logger.debug("fanning %d units over %d workers (%d chunks)",
                     len(units), workers, len(chunks))
        try:
            pool = self._ensure_pool()
            futures = [pool.submit(_invoke_chunk, chunk, trace_spec)
                       for chunk in chunks]
            # Collect everything BEFORE merging any counter/trace deltas:
            # if a worker dies mid-batch nothing has been folded in yet,
            # so the serial rerun below cannot double-count.
            outcomes = [future.result() for future in futures]
        except BrokenProcessPool:
            self.pool_restarts += 1
            logger.warning("worker pool died mid-batch; rerunning %d units "
                           "serially (next parallel call gets a new pool)",
                           len(units))
            self.close()
            return self._map_serial(units)
        results: List[Any] = []
        # Merging in submission order reproduces the serial event
        # sequence (and counter totals) byte for byte.
        for chunk, chunk_outcomes in zip(chunks, outcomes):
            for unit, (result, delta, events) in zip(chunk, chunk_outcomes):
                metrics.merge(delta)
                if events is not None and recorder is not None:
                    recorder.extend(events)
                    _emit_unit_profile(unit, len(events), delta)
                results.append(result)
        return results

    # -- supervised execution (per-unit processes, deadlines, kills) --------

    def map_supervised(
        self,
        units: Sequence[WorkUnit],
        unit_timeout_s: Optional[float] = None,
        heartbeat_dir: Optional[str] = None,
        attempts: Optional[Sequence[int]] = None,
    ) -> List[Union[Any, "UnitFailure"]]:
        """Run one attempt of each unit under fault containment.

        Unlike :meth:`map` (shared pool, chunked batches), every unit
        gets its **own worker process** so the supervisor can enforce a
        per-unit wall-clock deadline with a surgical SIGKILL — one hung
        probe dies alone instead of stalling or breaking a shared pool.
        Up to ``jobs`` workers run concurrently; results come back in
        submission order, and every way a unit can die is surfaced as a
        :class:`UnitFailure` in its result slot, never an exception.

        Counter deltas and trace events from *successful* units merge in
        submission order (exactly like :meth:`map`), so a supervised run
        of healthy units is byte-identical to a plain one.  Batches that
        cannot be pickled fall back in-process, where the deadline is
        enforced best-effort with ``SIGALRM`` (main thread only).
        """
        units = list(units)
        self.units_run += len(units)
        self.last_profiles = {}
        if attempts is None:
            attempts = [1] * len(units)
        if not units:
            return []
        if not self._picklable(units):
            self.fallbacks += 1
            logger.debug("supervised batch of %d units is not picklable; "
                         "running in-process", len(units))
            return self._map_supervised_inprocess(units, unit_timeout_s,
                                                  attempts)
        started_batch = time.perf_counter()
        results = self._map_supervised_procs(units, unit_timeout_s,
                                             heartbeat_dir, attempts)
        self._observe(time.perf_counter() - started_batch, len(units),
                      workers=self._effective_workers())
        return results

    def _map_supervised_procs(
        self,
        units: List[WorkUnit],
        unit_timeout_s: Optional[float],
        heartbeat_dir: Optional[str],
        attempts: Sequence[int],
    ) -> List[Union[Any, "UnitFailure"]]:
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover — non-fork platforms
            ctx = multiprocessing.get_context()
        recorder = trace.recorder()
        trace_spec = None
        if recorder is not None:
            trace_spec = {"capacity": recorder.capacity,
                          "metrics_interval_s": recorder.metrics_interval_s}
        workers = self._effective_workers()
        results: List[Union[Any, UnitFailure]] = [None] * len(units)
        # index -> (worker outcome tuple, worker cpu seconds, wall seconds)
        successes: Dict[int, Tuple[Any, Optional[float], float]] = {}
        running: Dict[Any, _Running] = {}
        monitor = None
        if heartbeat_dir is not None:
            from ..runfarm.health import HealthMonitor

            monitor = HealthMonitor(heartbeat_dir)
        next_index = 0

        def launch() -> None:
            nonlocal next_index
            while next_index < len(units) and len(running) < workers:
                index = next_index
                next_index += 1
                recv_conn, send_conn = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_supervised_worker,
                    args=(send_conn, units[index], attempts[index],
                          trace_spec, heartbeat_dir, HEARTBEAT_INTERVAL_S),
                    daemon=True,
                )
                proc.start()
                send_conn.close()
                running[recv_conn] = _Running(index=index, unit=units[index],
                                              attempt=attempts[index],
                                              proc=proc,
                                              started=time.perf_counter())

        def reap(conn, state: _Running) -> None:
            """Collect one finished worker's message (or its corpse)."""
            payload = None
            try:
                payload = conn.recv()
            except (EOFError, OSError):
                payload = None
            state.proc.join(timeout=5.0)
            try:
                conn.close()
            except OSError:
                pass
            elapsed = time.perf_counter() - state.started
            if payload is None:
                exitcode = state.proc.exitcode
                failure = UnitFailure(
                    unit=state.unit.name, kind=UnitFailure.WORKER_LOST,
                    elapsed_s=elapsed, attempt=state.attempt,
                    message=f"worker exited with code {exitcode}")
                metrics.counter(metrics.RUNFARM_WORKER_LOST).inc()
                logger.warning("worker for unit %s died (exit %s); "
                               "surfacing worker-lost", state.unit.name,
                               exitcode)
                if trace.TRACING:
                    trace.instant("runfarm.worker_lost", trace.RUNFARM,
                                  unit=state.unit.name, attempt=state.attempt)
                results[state.index] = failure
            elif payload[0] == "ok":
                cpu_s = payload[2] if len(payload) > 2 else None
                successes[state.index] = (payload[1], cpu_s, elapsed)
            else:
                _tag, error_type, message = payload
                results[state.index] = UnitFailure(
                    unit=state.unit.name, kind=UnitFailure.ERROR,
                    elapsed_s=elapsed, attempt=state.attempt,
                    message=message, error_type=error_type)

        try:
            while next_index < len(units) or running:
                launch()
                ready = mp_connection.wait(list(running),
                                           timeout=_SUPERVISED_TICK_S)
                for conn in ready:
                    reap(conn, running.pop(conn))
                if unit_timeout_s is not None:
                    now = time.perf_counter()
                    for conn, state in list(running.items()):
                        if now - state.started <= unit_timeout_s:
                            continue
                        # Deadline expired: SIGKILL just this worker and
                        # surface a typed timeout; the supervisor decides
                        # whether to requeue.
                        del running[conn]
                        state.proc.kill()
                        state.proc.join(timeout=5.0)
                        try:
                            conn.close()
                        except OSError:
                            pass
                        elapsed = now - state.started
                        metrics.counter(metrics.RUNFARM_TIMEOUTS).inc()
                        logger.warning(
                            "unit %s exceeded %.2fs deadline after %.2fs; "
                            "SIGKILLed worker %s", state.unit.name,
                            unit_timeout_s, elapsed, state.proc.pid)
                        if trace.TRACING:
                            trace.instant("runfarm.timeout", trace.RUNFARM,
                                          unit=state.unit.name,
                                          attempt=state.attempt)
                        results[state.index] = UnitFailure(
                            unit=state.unit.name, kind=UnitFailure.TIMEOUT,
                            elapsed_s=elapsed, attempt=state.attempt,
                            message=f"exceeded {unit_timeout_s:.2f}s deadline")
                if monitor is not None:
                    self._check_health(monitor, running, unit_timeout_s)
        finally:
            # An unexpected parent-side error must not leak children.
            for conn, state in running.items():
                state.proc.kill()
                state.proc.join(timeout=5.0)
                try:
                    conn.close()
                except OSError:
                    pass
        # Merge successful units' metrics/traces in submission order so
        # supervised output matches the serial reference byte for byte.
        for index in sorted(successes):
            (result, delta, events), cpu_s, wall_s = successes[index]
            metrics.merge(delta)
            if events is not None and recorder is not None:
                recorder.extend(events)
                _emit_unit_profile(units[index], len(events), delta)
            self.last_profiles[units[index].name] = UnitProfile(
                unit=units[index].name, wall_s=wall_s, cpu_s=cpu_s,
                sim_events=metrics.counter_delta(delta,
                                                 metrics.EVENTS_FIRED))
            results[index] = result
        return results

    def _check_health(self, monitor, running: Dict[Any, _Running],
                      unit_timeout_s: Optional[float]) -> None:
        """Fold a heartbeat scan into counters; log hung/slow workers.

        ``hung`` means the worker's heartbeat went stale (the process is
        dead, stopped, or wedged hard enough that its beat thread cannot
        run) — distinct from ``slow``, a live worker whose unit is just
        taking much longer than the batch EWMA predicts.
        """
        beats = monitor.scan()
        for state in running.values():
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

    def _map_supervised_inprocess(
        self,
        units: List[WorkUnit],
        unit_timeout_s: Optional[float],
        attempts: Sequence[int],
    ) -> List[Union[Any, "UnitFailure"]]:
        """Fallback for unpicklable batches: same typed-failure contract.

        The deadline is enforced with ``SIGALRM`` where possible (main
        thread, POSIX); a numpy-bound unit may overshoot, but a pure-
        Python hang is still contained.  Workers cannot be killed here,
        so ``worker-lost`` never occurs on this path.
        """
        use_alarm = (
            unit_timeout_s is not None
            and hasattr(signal, "setitimer")
            and threading.current_thread() is threading.main_thread()
        )
        results: List[Union[Any, UnitFailure]] = []
        for unit, attempt in zip(units, attempts):
            started = time.perf_counter()
            cpu_started = time.process_time()
            previous = None
            if use_alarm:
                def _on_alarm(_signum, _frame):
                    raise _InProcessTimeout()
                previous = signal.signal(signal.SIGALRM, _on_alarm)
                signal.setitimer(signal.ITIMER_REAL, unit_timeout_s)
            try:
                before = metrics.snapshot()
                if trace.TRACING:
                    recorder = trace.recorder()
                    before_appended = recorder.appended
                    with trace.track(unit.name):
                        result = unit.run()
                    _emit_unit_profile(unit,
                                       recorder.appended - before_appended,
                                       metrics.delta_since(before))
                else:
                    result = unit.run()
                self.last_profiles[unit.name] = UnitProfile(
                    unit=unit.name,
                    wall_s=time.perf_counter() - started,
                    cpu_s=time.process_time() - cpu_started,
                    sim_events=metrics.counter_delta(
                        metrics.delta_since(before),
                        metrics.EVENTS_FIRED))
                results.append(result)
            except _InProcessTimeout:
                metrics.counter(metrics.RUNFARM_TIMEOUTS).inc()
                results.append(UnitFailure(
                    unit=unit.name, kind=UnitFailure.TIMEOUT,
                    elapsed_s=time.perf_counter() - started, attempt=attempt,
                    message=f"exceeded {unit_timeout_s:.2f}s deadline "
                            "(in-process)"))
            except Exception as exc:  # noqa: BLE001 — typed record
                results.append(UnitFailure(
                    unit=unit.name, kind=UnitFailure.ERROR,
                    elapsed_s=time.perf_counter() - started, attempt=attempt,
                    message=str(exc), error_type=type(exc).__name__))
            finally:
                if use_alarm:
                    signal.setitimer(signal.ITIMER_REAL, 0.0)
                    signal.signal(signal.SIGALRM, previous)
        return results

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

    @staticmethod
    def _picklable(units: Sequence[WorkUnit]) -> bool:
        try:
            pickle.dumps(units)
        except Exception:  # noqa: BLE001 — any pickling failure means serial
            return False
        return True


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
