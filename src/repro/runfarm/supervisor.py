"""The run-farm supervisor: retries, quarantine, and manifest journaling.

This is the scheduling substrate ROADMAP item 2 calls for: a
manifest-driven layer over :class:`~repro.core.executor.ParallelExecutor`
and the content-addressed cache that makes every registry-declared run
**resumable, time-bounded, and fault-contained**:

* every work unit's key, status, attempt count, and artifact hash is
  journaled to a :class:`~repro.runfarm.manifest.RunManifest` (atomic
  JSONL appends), so a SIGKILLed driver loses nothing but in-flight
  units;
* each attempt runs under a per-unit wall-clock deadline enforced with
  SIGKILL by the executor's supervised path; the kill is surgical — one
  hung probe dies alone;
* failed attempts are retried under a harness-level
  :class:`~repro.faults.retry.RetryPolicy` (the same backoff math the
  simulated request paths use), with both attempt-count and
  total-elapsed bounds;
* units that keep failing are **quarantined** as poison pills after
  exhausting their attempts, and the batch completes with a
  :class:`QuarantinedUnitError` carrying the full typed failure list —
  the experiment registry's degradation policy then decides whether the
  artifact aborts or degrades to a partial-results verdict;
* on ``--resume``, previously completed units are served straight from
  the artifact store (verified present), so only incomplete units
  re-execute and the final output is byte-identical to an uninterrupted
  run (units are pure functions of their arguments).

:class:`SupervisedExecutor` plugs all of this into the existing
``map_cached``/``executor.map`` seam, so every experiment gains
supervision with zero per-experiment changes.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Union

import numpy as np

from ..core import trace
from ..core.executor import (
    ParallelExecutor,
    UnitFailure,
    UnitProfile,
    WorkUnit,
    unit_content_key,
)
from ..faults.retry import RetryPolicy
from ..obs import metrics
from . import manifest as mf
from .manifest import RunManifest

if TYPE_CHECKING:  # pragma: no cover
    from ..core.cache import ResultCache

logger = logging.getLogger("repro.runfarm")

# Harness-level retry defaults: short backoff (these are process-level
# requeues, not simulated RPCs), deterministic (no jitter), bounded both
# by attempts and by total elapsed time.
DEFAULT_RETRY = RetryPolicy(timeout_s=0.05, max_attempts=3,
                            backoff_factor=2.0, jitter_fraction=0.0,
                            max_elapsed_s=300.0)

_FAILURE_STATUS = {
    UnitFailure.TIMEOUT: mf.TIMEOUT,
    UnitFailure.WORKER_LOST: mf.WORKER_LOST,
    UnitFailure.ERROR: mf.FAILED,
}


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs for one supervised run (CLI flags map 1:1 onto these)."""

    unit_timeout_s: Optional[float] = None
    retry: RetryPolicy = DEFAULT_RETRY
    heartbeat_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.unit_timeout_s is not None and self.unit_timeout_s <= 0:
            raise ValueError("unit_timeout_s must be positive")


class QuarantinedUnitError(RuntimeError):
    """A batch finished but some units were quarantined as poison pills.

    Raised by the supervisor after the *whole batch* has been driven to
    completion — every healthy unit's result is computed and stored
    before this surfaces, so a resume (or a partial-results verdict)
    has maximal progress to build on.
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


@dataclass
class RunSupervisor:
    """Drives batches of work units to completion under fault policy."""

    manifest: RunManifest
    config: SupervisorConfig = field(default_factory=SupervisorConfig)
    prior_done: frozenset = frozenset()
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0))
    # Totals across every batch of the run (CLI health footer).
    units_completed: int = 0
    units_resumed: int = 0
    units_retried: int = 0
    units_quarantined: int = 0
    # Per-unit wall/CPU/events profiles accumulated across batches
    # (journaled to the manifest and surfaced by the report's
    # slowest-units section and `repro status`).
    profiles: List[UnitProfile] = field(default_factory=list)

    def run_batch(
        self,
        executor: ParallelExecutor,
        units: Sequence[WorkUnit],
        keys: Sequence[Optional[str]],
        store: "ResultCache",
    ) -> List[object]:
        """Drive one batch to completion; returns results in unit order.

        Raises :class:`QuarantinedUnitError` (after finishing everything
        else) if any unit exhausted its attempts.
        """
        units = list(units)
        keys = list(keys)
        if len(units) != len(keys):
            raise ValueError("units and keys must have equal length")
        if not units:
            return []
        results: List[object] = [None] * len(units)
        manifest_keys = [
            key if key is not None else f"unkeyed:{unit.name}"
            for unit, key in zip(units, keys)
        ]

        pending: List[int] = []
        for index, (unit, key) in enumerate(zip(units, keys)):
            if key is not None:
                found, value = store.get(key)
                if found:
                    results[index] = value
                    self.units_completed += 1
                    if key in self.prior_done:
                        self.units_resumed += 1
                        metrics.counter(metrics.RUNFARM_RESUMED).inc()
                    self.manifest.record_unit(
                        key, unit.name, mf.CACHED,
                        artifact=store.digest(key))
                    continue
            pending.append(index)

        policy = self.config.retry
        batch_started = time.monotonic()
        quarantined: List[UnitFailure] = []
        attempt = 1
        while pending:
            for index in pending:
                self.manifest.record_unit(manifest_keys[index],
                                          units[index].name, mf.RUNNING,
                                          attempt=attempt)
            outcomes = executor.map_supervised(
                [units[i] for i in pending],
                unit_timeout_s=self.config.unit_timeout_s,
                heartbeat_dir=self.config.heartbeat_dir,
                attempts=[attempt] * len(pending),
            )
            elapsed = time.monotonic() - batch_started
            retry: List[int] = []
            for index, outcome in zip(pending, outcomes):
                if not isinstance(outcome, UnitFailure):
                    digest = None
                    if keys[index] is not None:
                        digest = store.put(keys[index], outcome)
                    profile = executor.last_profiles.get(units[index].name)
                    if profile is not None:
                        self.profiles.append(profile)
                    self.manifest.record_unit(
                        manifest_keys[index], units[index].name, mf.DONE,
                        attempt=attempt, artifact=digest,
                        wall_s=profile.wall_s if profile else None,
                        cpu_s=profile.cpu_s if profile else None,
                        events_per_s=(profile.events_per_s
                                      if profile else None))
                    results[index] = outcome
                    self.units_completed += 1
                    continue
                failure = outcome
                self.manifest.record_unit(
                    manifest_keys[index], units[index].name,
                    _FAILURE_STATUS.get(failure.kind, mf.FAILED),
                    attempt=attempt, elapsed_s=failure.elapsed_s,
                    error=failure.describe())
                exhausted = attempt >= policy.max_attempts
                over_deadline = not policy.within_deadline(elapsed)
                if exhausted or over_deadline:
                    reason = ("attempts exhausted" if exhausted
                              else "retry deadline exceeded")
                    self.manifest.record_unit(
                        manifest_keys[index], units[index].name,
                        mf.QUARANTINED, attempt=attempt,
                        error=f"{reason}: {failure.describe()}")
                    quarantined.append(failure)
                    self.units_quarantined += 1
                    metrics.counter(metrics.RUNFARM_QUARANTINED).inc()
                    logger.error("quarantining poison-pill unit %s (%s)",
                                 failure.unit, reason)
                    if trace.TRACING:
                        trace.instant("runfarm.quarantine", trace.RUNFARM,
                                      unit=failure.unit, attempt=attempt,
                                      kind=failure.kind)
                else:
                    retry.append(index)
                    if trace.TRACING:
                        trace.instant("runfarm.requeue", trace.RUNFARM,
                                      unit=failure.unit, attempt=attempt,
                                      kind=failure.kind)
            if retry:
                self.units_retried += len(retry)
                metrics.counter(metrics.RUNFARM_RETRIES).inc(len(retry))
                backoff = policy.backoff_s(attempt - 1, self.rng)
                if policy.max_elapsed_s is not None:
                    budget = policy.max_elapsed_s - (time.monotonic()
                                                     - batch_started)
                    backoff = max(0.0, min(backoff, budget))
                logger.warning(
                    "requeueing %d failed unit(s) (attempt %d -> %d) "
                    "after %.2fs backoff", len(retry), attempt,
                    attempt + 1, backoff)
                if backoff > 0:
                    time.sleep(backoff)
            pending = retry
            attempt += 1
        if quarantined:
            raise QuarantinedUnitError(quarantined, total=len(units))
        return results


class SupervisedExecutor(ParallelExecutor):
    """A drop-in :class:`ParallelExecutor` with run-farm supervision.

    Installed by the CLI when any runfarm flag (``--run-dir``,
    ``--resume``, ``--unit-timeout``, ``--max-unit-attempts``) is
    active.  Both execution seams route through the supervisor:

    * :meth:`map_keyed` (every ``map_cached`` call site) uses the
      experiments' own content-addressed keys;
    * :meth:`map` (table4, microburst, auxiliary sweeps) derives keys
      from each unit's pickle bytes, so even those batches journal to
      the manifest and skip-on-resume.

    Unpicklable units (closures) get no key: they run under supervision
    but always re-execute — correctness is unaffected since they are
    pure.
    """

    def __init__(self, jobs: int = 1, *, manifest: RunManifest,
                 config: Optional[SupervisorConfig] = None,
                 store: Optional["ResultCache"] = None,
                 prior_done: frozenset = frozenset(),
                 rng: Optional[np.random.Generator] = None,
                 serial_bypass: bool = True):
        super().__init__(jobs, serial_bypass=serial_bypass)
        self.supervisor = RunSupervisor(
            manifest=manifest,
            config=config or SupervisorConfig(),
            prior_done=prior_done,
            rng=rng if rng is not None else np.random.default_rng(0),
        )
        self._store = store

    def _resolve_store(self, store: Optional["ResultCache"]
                       ) -> "ResultCache":
        if store is not None:
            return store
        if self._store is not None:
            return self._store
        from ..core.cache import get_cache

        return get_cache()

    def map_keyed(
        self,
        units: Sequence[WorkUnit],
        keys: Sequence[str],
        store: Optional["ResultCache"] = None,
    ) -> List[object]:
        return self.supervisor.run_batch(self, units, keys,
                                         self._resolve_store(store))

    def map(self, units: Sequence[WorkUnit]) -> List[object]:
        units = list(units)
        keys = [unit_content_key(unit) for unit in units]
        return self.supervisor.run_batch(self, units, keys,
                                         self._resolve_store(None))

    @property
    def unit_profiles(self) -> List[UnitProfile]:
        """Every completed unit's wall/CPU/events profile, in completion
        order (the report's slowest-units section reads this)."""
        return self.supervisor.profiles

    def summary(self) -> str:
        sup = self.supervisor
        return (f"runfarm {sup.units_completed} units"
                f" | {sup.units_resumed} resumed"
                f" | {sup.units_retried} retried"
                f" | {sup.units_quarantined} quarantined")


def load_prior_done(manifest_path: str) -> frozenset:
    """Keys a previous generation completed (for resume accounting)."""
    import os

    if not os.path.exists(manifest_path):
        return frozenset()
    try:
        return RunManifest.load(manifest_path).done_keys()
    except OSError:
        return frozenset()
