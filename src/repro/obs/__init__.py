"""Observability plane: typed metrics, exposition, fleet status, SLO burn.

The telemetry subsystem every experiment reports through:

* :mod:`metrics` — a typed metric registry (Counter, Gauge, Histogram
  with deterministic log-spaced buckets and exact quantiles) and the
  well-known counter names.  Worker-side delta snapshots merge
  parent-side in submission order, so every total is byte-identical at
  any ``--jobs N``.
* :mod:`openmetrics` — OpenMetrics text exposition and JSONL export
  (``--metrics-out`` on every verb), a strict exposition parser for CI,
  and an opt-in localhost ``/metrics`` HTTP endpoint
  (``--metrics-port``) so a long farm run can be scraped live.
* :mod:`slo` — the SLO burn monitor: evaluates each experiment's
  p99-vs-SLO targets and EXPERIMENTS.md anchor bands as metrics during
  a run, emitting structured warnings (and a non-verdict ``slo`` block
  in the JSON envelope) on drift.  Drift never changes an exit code or
  verdict.

Fleet progress rendering lives with the run farm in
:mod:`repro.runfarm.status` (the ``repro status`` verb).
"""

from . import metrics
from .metrics import Counter, Gauge, Histogram, MetricRegistry

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "metrics",
]
