"""Flight-recorder tracing for the simulation stack.

Every layer of the library — the DES kernel, the queueing fast path, the
accelerator batch models, the netstack, fault injection, the executor and
the result cache — can emit *trace events* into a bounded ring buffer.
When the buffer fills, the oldest events are evicted (and counted), so
what remains is always the most recent window of activity: a flight
recorder, not a full log.

Overhead contract
-----------------
Tracing is **disabled by default** and every emit helper starts with a
check of the module-level :data:`TRACING` flag.  Hot call sites guard
with ``if trace.TRACING:`` *before* building any arguments, so a
disabled trace costs one module-attribute read per site — the PR-2
kernel and Lindley fast-path wins are preserved (see
``benchmarks/test_bench_kernel.py::test_trace_disabled_overhead``).

Determinism contract
--------------------
Trace events never contain wall-clock values.  Timestamps are either

* explicit **simulated time** (seconds, converted to microseconds), or
* a per-track **logical clock** (one tick per event) for layers that run
  outside a simulator (rate probes, cache lookups, executor profiles).

Each work unit records onto its own track and logical clocks are scoped
per track, so a parallel run (``--jobs N``) merges worker-side events
back in submission order and reproduces the serial trace byte for byte
(``tests/core/test_executor.py::TestTraceDeterminism``).

Categories
----------
``sim.event``   kernel run-loop summaries
``queue``       per-window queue depth / utilization series
``accel.batch`` accelerator batch formation and service
``netstack``    per-packet stage costs (serialization, drops)
``fault``       fault episode spans
``probe``       rate probes, sweeps, per-work-unit profiles
``cache``       result-cache lookups and stores
``runfarm``     unit attempts, timeouts, requeues, quarantines, heartbeats

Exporters
---------
:func:`export_jsonl` writes one event per line (stable key order — the
byte-identical format the determinism tests compare), and
:func:`export_chrome` writes the Chrome ``trace_event`` JSON that
Perfetto / ``chrome://tracing`` load directly.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, TextIO, Tuple

from ..obs import metrics

# -- categories --------------------------------------------------------------

SIM = "sim.event"
QUEUE = "queue"
ACCEL_BATCH = "accel.batch"
NETSTACK = "netstack"
FAULT = "fault"
PROBE = "probe"
CACHE = "cache"
RUNFARM = "runfarm"

CATEGORIES = (SIM, QUEUE, ACCEL_BATCH, NETSTACK, FAULT, PROBE, CACHE,
              RUNFARM)

DEFAULT_CAPACITY = 1 << 16
DEFAULT_METRICS_INTERVAL_S = 1e-3
# Per-probe series are capped so one long run cannot flood the buffer.
MAX_SERIES_POINTS = 256

# Fast-path flag: emit helpers and call sites check this first.  It is
# True exactly when a recorder is installed.
TRACING = False

_recorder: Optional["TraceRecorder"] = None


@dataclass
class TraceEvent:
    """One recorded occurrence; all fields are deterministic primitives."""

    name: str
    category: str
    phase: str  # "X" complete span | "i" instant | "C" counter
    track: str
    ts_us: float
    dur_us: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Bounded ring buffer of :class:`TraceEvent` with eviction stats."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 metrics_interval_s: float = DEFAULT_METRICS_INTERVAL_S):
        if capacity < 1:
            raise ValueError("trace buffer capacity must be >= 1")
        if metrics_interval_s <= 0:
            raise ValueError("metrics interval must be positive")
        self.capacity = capacity
        self.metrics_interval_s = metrics_interval_s
        self._events: Deque[TraceEvent] = deque()
        self.appended = 0
        self.dropped = 0
        self._ticks: Dict[str, int] = {}
        self.track = "main"

    # -- recording ----------------------------------------------------------

    def append(self, event: TraceEvent) -> None:
        if len(self._events) >= self.capacity:
            self._events.popleft()
            self.dropped += 1
            metrics.counter(metrics.TRACE_DROPPED).inc()
        self._events.append(event)
        self.appended += 1

    def extend(self, events: Iterable[TraceEvent]) -> None:
        for event in events:
            self.append(event)

    def tick(self, track: str) -> float:
        """Next logical timestamp (microseconds) on ``track``."""
        value = self._ticks.get(track, 0)
        self._ticks[track] = value + 1
        return float(value)

    # -- inspection ---------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def category_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self._events:
            counts[event.category] = counts.get(event.category, 0) + 1
        return counts


# -- module-level switchboard ------------------------------------------------


def enable(capacity: int = DEFAULT_CAPACITY,
           metrics_interval_s: float = DEFAULT_METRICS_INTERVAL_S) -> TraceRecorder:
    """Install a fresh recorder (discarding any previous one)."""
    global _recorder, TRACING
    _recorder = TraceRecorder(capacity, metrics_interval_s)
    TRACING = True
    return _recorder


def disable() -> None:
    global _recorder, TRACING
    _recorder = None
    TRACING = False


def enabled() -> bool:
    return TRACING


def recorder() -> Optional[TraceRecorder]:
    return _recorder


def current_track() -> str:
    return _recorder.track if _recorder is not None else "main"


@contextmanager
def track(name: str):
    """Scope subsequent events (without an explicit track) to ``name``."""
    if _recorder is None:
        yield
        return
    previous = _recorder.track
    _recorder.track = name
    try:
        yield
    finally:
        _recorder.track = previous


def subtrack(suffix: str) -> str:
    """A child track name under the current track."""
    return f"{current_track()}/{suffix}"


# -- emit helpers ------------------------------------------------------------
#
# ``ts`` is simulated seconds; omit it to stamp the event with the
# track's logical clock instead.  All helpers are no-ops when disabled.


def _resolve(ts: Optional[float], track_name: Optional[str]) -> Tuple[float, str]:
    resolved_track = track_name if track_name is not None else _recorder.track
    if ts is None:
        return _recorder.tick(resolved_track), resolved_track
    return ts * 1e6, resolved_track


def instant(name: str, category: str, ts: Optional[float] = None,
            track: Optional[str] = None, **args: Any) -> None:
    if not TRACING:
        return
    ts_us, resolved = _resolve(ts, track)
    _recorder.append(TraceEvent(name=name, category=category, phase="i",
                                track=resolved, ts_us=ts_us, args=args))


def complete(name: str, category: str, ts: float, dur: float,
             track: Optional[str] = None, **args: Any) -> None:
    """A span covering ``[ts, ts + dur]`` in simulated seconds."""
    if not TRACING:
        return
    resolved = track if track is not None else _recorder.track
    _recorder.append(TraceEvent(name=name, category=category, phase="X",
                                track=resolved, ts_us=ts * 1e6,
                                dur_us=dur * 1e6, args=args))


def counter(name: str, category: str, ts: Optional[float] = None,
            track: Optional[str] = None, **values: float) -> None:
    if not TRACING:
        return
    ts_us, resolved = _resolve(ts, track)
    _recorder.append(TraceEvent(name=name, category=category, phase="C",
                                track=resolved, ts_us=ts_us, args=values))


def counter_series(name: str, category: str, ts_seconds, track: Optional[str] = None,
                   **columns) -> None:
    """Emit one counter event per timestamp in a single batched call.

    ``ts_seconds`` is a sequence of simulated-time stamps and each value
    in ``columns`` a same-length sequence; element i of every column
    becomes event i's args.  Equivalent to calling :func:`counter` in a
    loop (identical events, identical order) but the per-event Python
    overhead — flag check, track resolution, kwarg packing — is paid
    once per series instead of once per point.
    """
    if not TRACING:
        return
    resolved = track if track is not None else _recorder.track
    keys = list(columns)
    rows = zip(*(columns[key] for key in keys)) if keys else iter(())
    append = _recorder.append
    for ts, values in zip(ts_seconds, rows):
        append(TraceEvent(name=name, category=category, phase="C",
                          track=resolved, ts_us=ts * 1e6,
                          args=dict(zip(keys, values))))


# -- exporters ---------------------------------------------------------------


def _event_payload(event: TraceEvent) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "name": event.name,
        "cat": event.category,
        "ph": event.phase,
        "track": event.track,
        "ts": event.ts_us,
    }
    if event.phase == "X":
        payload["dur"] = event.dur_us
    if event.args:
        payload["args"] = event.args
    return payload


def export_jsonl(fh: TextIO, rec: Optional[TraceRecorder] = None) -> int:
    """One compact JSON object per line; returns the event count.

    Key order and float formatting are stable, so two recorders holding
    the same events serialize to identical bytes.
    """
    rec = rec if rec is not None else _recorder
    if rec is None:
        return 0
    count = 0
    for event in rec._events:
        fh.write(json.dumps(_event_payload(event), sort_keys=True,
                            separators=(",", ":")))
        fh.write("\n")
        count += 1
    return count


def export_chrome(fh: TextIO, rec: Optional[TraceRecorder] = None) -> int:
    """Chrome ``trace_event`` JSON (Perfetto-loadable); returns event count.

    Tracks become threads of a single process: tids are assigned in
    sorted track-name order and announced with ``thread_name`` metadata
    events, so the Perfetto timeline groups each probe / work unit on
    its own row.
    """
    rec = rec if rec is not None else _recorder
    if rec is None:
        fh.write(json.dumps({"traceEvents": []}))
        return 0
    tracks = sorted({event.track for event in rec._events})
    tids = {name: index + 1 for index, name in enumerate(tracks)}
    trace_events: List[Dict[str, Any]] = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": tids[name],
            "args": {"name": name},
        }
        for name in tracks
    ]
    for event in rec._events:
        payload = {
            "name": event.name,
            "cat": event.category,
            "ph": event.phase,
            "ts": event.ts_us,
            "pid": 1,
            "tid": tids[event.track],
            "args": event.args,
        }
        if event.phase == "X":
            payload["dur"] = event.dur_us
        if event.phase == "i":
            payload["s"] = "t"  # instant scope: thread
        trace_events.append(payload)
    json.dump(
        {
            "traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro flight recorder",
                "dropped_events": rec.dropped,
            },
        },
        fh,
    )
    return len(rec._events)


def summary_line(rec: Optional[TraceRecorder] = None) -> str:
    """Human-readable one-liner for CLI footers."""
    rec = rec if rec is not None else _recorder
    if rec is None:
        return "trace off"
    return f"trace {len(rec)} ev ({rec.dropped} dropped)"
