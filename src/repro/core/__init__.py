"""Simulation kernel, queueing resources, and measurement methodology."""

from .analytic import (
    batch_capacity,
    erlang_c,
    mg1_sojourn_p99,
    mg1_wait_mean,
    mmc_wait_mean,
    sharded_capacity,
    slo_capacity,
)
from .cache import CODE_VERSION, ResultCache, cache_key
from .engine import Event, Process, Simulator, SimulationError, Timeout
from .executor import ParallelExecutor, WorkUnit
from .metrics import (
    LatencyRecorder,
    LatencySummary,
    RunMetrics,
    ThroughputMeter,
    summarize_samples,
)
from .resources import Resource, Store
from .rng import RandomStreams
from .sweep import SweepResult, find_max_sustainable_rate, rate_response_curve
from .trace import TraceEvent, TraceRecorder, export_chrome, export_jsonl

__all__ = [
    "batch_capacity",
    "erlang_c",
    "mg1_sojourn_p99",
    "mg1_wait_mean",
    "mmc_wait_mean",
    "sharded_capacity",
    "slo_capacity",
    "CODE_VERSION",
    "ResultCache",
    "cache_key",
    "Event",
    "Process",
    "Simulator",
    "SimulationError",
    "Timeout",
    "ParallelExecutor",
    "WorkUnit",
    "Resource",
    "Store",
    "RandomStreams",
    "LatencyRecorder",
    "LatencySummary",
    "ThroughputMeter",
    "RunMetrics",
    "SweepResult",
    "summarize_samples",
    "find_max_sustainable_rate",
    "rate_response_curve",
    "TraceEvent",
    "TraceRecorder",
    "export_chrome",
    "export_jsonl",
]
