"""The declarative experiment registry: one spec layer for every artifact.

The paper's value is its *matrix* of artifacts — Figs. 4-7, Tables 4-5,
the five Key Observations — measured under one methodology.  Before this
module the repo re-encoded that matrix in four places (the CLI dispatch,
the report generator, the trace verb's smoke shrinking, and hand-kept
capability sets like ``CSV_COMMANDS``).  Now each experiment registers a
single :class:`Experiment` spec and every consumer — CLI verbs, the
EXPERIMENTS.md report, the flight-recorder ``trace`` verb, the cold-start
tests, and the CSV/JSON exporters — is a generic walk over the registry.

Adding an experiment is one row of :data:`TABLE` (verb, defining module,
title) plus the spec its module registers at import::

    # TABLE
    ("myexp", "repro.experiments.myexp", "My new study"),

    # repro/experiments/myexp.py
    register(Experiment(
        name="myexp",
        runner=lambda ctx: run_myexp(samples=ctx.fidelity().samples,
                                     streams=ctx.streams,
                                     executor=ctx.executor),
        formatter=format_myexp,
        tiers=smoke_tier(samples=40, requests=2_500),
    ))

and ``python -m repro myexp`` (with ``--smoke``, ``--json``, ``--trace``,
``--jobs`` ...) plus its cold-start test all exist with no further edits.
The table is what keeps the CLI cheap: the parser's verbs, their help
lines and :func:`names` read it and import nothing, and :func:`get`
imports only the one module that defines the verb asked for.

Fidelity tiers
--------------

Every spec declares at least the ``default`` and ``smoke`` tiers.  A
tier's ``samples``/``requests`` act as *caps* on the invocation-wide
``--samples``/``--requests`` values: the default tier usually leaves
them ``None`` (CLI fidelity passes through untouched, which keeps verb
output byte-identical to the pre-registry CLI), while the smoke tier
pins small caps plus optional ``keys``/``rates_gbps`` subsets so CI can
exercise the full path in seconds.

Dependencies
------------

Specs declare what they consume (``fig6`` consumes ``fig4``'s rows;
``observations`` consumes fig4+fig5+fig6; ``table5`` consumes
``table4``) and runners fetch those results with ``ctx.run(name)``.
Each :class:`ExperimentContext` memoizes results per invocation, so a
registry walk like ``repro report`` simulates each (function, platform,
fidelity) operating point at most once, no matter how many artifacts
consume it.
"""

from __future__ import annotations

import importlib
import logging
import threading
from dataclasses import dataclass, field
from typing import (
    IO,
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.executor import ParallelExecutor
    from ..core.rng import RandomStreams

logger = logging.getLogger("repro.registry")

DEFAULT_TIER = "default"
SMOKE_TIER = "smoke"

# Degradation policies: what happens when the run farm quarantines some
# of an experiment's work units as poison pills.  ``abort`` experiments
# are load-bearing (their numbers feed other artifacts and the paper
# anchors) and must fail loudly; ``partial`` experiments complete the
# invocation with a partial-results verdict instead.
DEGRADE_ABORT = "abort"
DEGRADE_PARTIAL = "partial"

# The invocation-wide fidelity the CLI has always defaulted to; contexts
# built without explicit values (library use, tests) get the same numbers
# so `ctx.run("fig4")` reproduces `python -m repro fig4` exactly.
DEFAULT_SAMPLES = 200
DEFAULT_REQUESTS = 12_000

# Every shipped verb as (name, defining module, title), in the paper's
# artifact order: the CLI verb list, the report walk and the cold-start
# tests all follow it.  The module registers the verb's spec when it is
# imported; the title here is the spec's title and the verb's help line.
TABLE: Tuple[Tuple[str, str, str], ...] = (
    ("fig4", "repro.experiments.fig4",
     "Fig. 4: throughput and p99 latency, SNIC vs host"),
    ("fig5", "repro.experiments.fig5",
     "Fig. 5: REM throughput and p99 latency vs offered rate"),
    ("fig6", "repro.experiments.fig6",
     "Fig. 6: average power and energy efficiency"),
    ("fig7", "repro.experiments.fig7",
     "Fig. 7: network data rates of the hyperscaler trace"),
    ("table4", "repro.experiments.table4",
     "Table 4: REM replaying the hyperscaler trace"),
    ("table5", "repro.experiments.table5",
     "Table 5: five-year TCO, SNIC vs standard-NIC fleets"),
    ("observations", "repro.experiments.observations",
     "Key Observations 1-5 as machine-checked verdicts"),
    ("tables", "repro.analysis.tables",
     "Tables 1-3: hardware and benchmark configuration"),
    ("strategy1", "repro.experiments.strategy1",
     "Strategy 1: SNIC kernel-stack offload what-if"),
    ("modes", "repro.experiments.modes",
     "Operation modes: the on-path tax for host-bound traffic"),
    ("sensitivity", "repro.experiments.sensitivity",
     "Future-SNIC sensitivity: where Fig. 4 conclusions flip"),
    ("microburst", "repro.experiments.microburst",
     "Microburst tolerance: bursty REM load, host vs accelerator"),
    ("faults", "repro.experiments.faults",
     "Availability under faults: failover and graceful degradation"),
    ("cluster", "repro.experiments.cluster",
     "Cluster: leaf-spine fabric, ECN vs drop-tail, fleet TCO"),
)
_MODULES: Dict[str, str] = {name: module for name, module, _ in TABLE}
_TITLES: Dict[str, str] = {name: title for name, _, title in TABLE}


@dataclass(frozen=True)
class Fidelity:
    """One tier's fidelity knobs.

    ``samples``/``requests`` are *caps*: the resolved value is
    ``min(invocation value, cap)``, so ``--samples 20`` still shrinks a
    smoke run further, and ``None`` passes the invocation value through.
    ``keys``/``rates_gbps`` restrict an experiment's sweep axes (the
    Fig. 4 function list, the Fig. 5 rate ladder); ``params`` carries
    experiment-specific extras (e.g. ``n_packets`` for the mode study).
    ``engine`` optionally pins a tier to one probe engine
    (:mod:`repro.core.hybrid`); ``None`` inherits the invocation's
    ``--engine`` choice.
    """

    samples: Optional[int] = None
    requests: Optional[int] = None
    keys: Optional[Tuple[str, ...]] = None
    rates_gbps: Optional[Tuple[float, ...]] = None
    params: Mapping[str, Any] = field(default_factory=dict)
    engine: Optional[str] = None

    def resolve(self, samples: int, requests: int, smoke: bool,
                engine: Optional[str] = None) -> "ResolvedFidelity":
        from ..core import hybrid

        return ResolvedFidelity(
            samples=min(samples, self.samples) if self.samples else samples,
            requests=(min(requests, self.requests)
                      if self.requests else requests),
            keys=self.keys,
            rates_gbps=self.rates_gbps,
            smoke=smoke,
            params=dict(self.params),
            engine=hybrid.resolve_engine(self.engine or engine),
        )


@dataclass(frozen=True)
class ResolvedFidelity:
    """A tier resolved against the invocation's ``--samples/--requests``."""

    samples: int
    requests: int
    keys: Optional[Tuple[str, ...]]
    rates_gbps: Optional[Tuple[float, ...]]
    smoke: bool
    params: Dict[str, Any]
    engine: str = "hybrid"


def smoke_tier(samples: int = 40, requests: int = 2_500,
               **smoke_fields: Any) -> Dict[str, Fidelity]:
    """The common two-tier layout: untouched default + capped smoke."""
    return {
        DEFAULT_TIER: Fidelity(),
        SMOKE_TIER: Fidelity(samples=samples, requests=requests,
                             **smoke_fields),
    }


@dataclass(frozen=True)
class Experiment:
    """Everything the system needs to know about one artifact.

    ``runner`` takes an :class:`ExperimentContext` and returns the result
    object; ``formatter`` renders it as the verb's text output; ``chart``
    optionally appends an ASCII figure; ``csv_writer``/``to_json`` give
    the artifact machine-readable exports (``--csv`` support is *derived*
    from ``csv_writer`` being present); ``schema`` declares the JSON
    artifact's shape for CI validation; ``depends`` names the registered
    experiments whose results the runner consumes via ``ctx.run``;
    ``verdict`` maps a result to a process exit code (the observations
    gate) — applied only at default fidelity, since smoke runs validate
    plumbing, not science.

    ``title`` is left empty for a verb of :data:`TABLE`, which supplies
    it; a spec registered at run time must give one.

    Run-farm fields: ``unit_granularity`` documents what one schedulable
    work unit of this experiment is (manifest rows and timeouts apply at
    that granularity), and ``degradation`` declares the policy when the
    supervisor quarantines units — :data:`DEGRADE_ABORT` propagates the
    failure (load-bearing artifacts), :data:`DEGRADE_PARTIAL` lets the
    invocation complete with a :class:`PartialResult` verdict.
    """

    name: str
    runner: Callable[["ExperimentContext"], Any]
    formatter: Callable[[Any], str]
    title: str = ""
    tiers: Mapping[str, Fidelity] = field(default_factory=smoke_tier)
    chart: Optional[Callable[[Any], str]] = None
    csv_writer: Optional[Callable[[IO[str], Any], int]] = None
    to_json: Optional[Callable[[Any], Any]] = None
    schema: Optional[Mapping[str, Any]] = None
    depends: Tuple[str, ...] = ()
    verdict: Optional[Callable[[Any], int]] = None
    description: str = ""
    unit_granularity: str = ""
    degradation: str = DEGRADE_ABORT

    def __post_init__(self) -> None:
        if self.name in _TITLES:
            if self.title not in ("", _TITLES[self.name]):
                raise ValueError(
                    f"experiment {self.name!r} takes its title from "
                    f"registry.TABLE, not {self.title!r}")
            object.__setattr__(self, "title", _TITLES[self.name])
        elif not self.title:
            raise ValueError(
                f"experiment {self.name!r} needs a title (only the verbs "
                f"of registry.TABLE have one already)")
        missing = {DEFAULT_TIER, SMOKE_TIER} - set(self.tiers)
        if missing:
            raise ValueError(
                f"experiment {self.name!r} must declare tiers "
                f"{sorted(missing)} (has {sorted(self.tiers)})"
            )
        if self.degradation not in (DEGRADE_ABORT, DEGRADE_PARTIAL):
            raise ValueError(
                f"experiment {self.name!r} has unknown degradation "
                f"policy {self.degradation!r} "
                f"(expected {DEGRADE_ABORT!r} or {DEGRADE_PARTIAL!r})"
            )

    @property
    def supports_csv(self) -> bool:
        return self.csv_writer is not None

    def tier(self, name: str) -> Fidelity:
        try:
            return self.tiers[name]
        except KeyError:
            raise KeyError(
                f"experiment {self.name!r} has no fidelity tier {name!r} "
                f"(tiers: {sorted(self.tiers)})"
            ) from None

    def render(self, result: Any) -> str:
        """The verb's full stdout: formatted text plus optional chart."""
        text = self.formatter(result)
        if self.chart is not None:
            text = f"{text}\n\n{self.chart(result)}"
        return text


@dataclass(frozen=True)
class PartialResult:
    """Sentinel result for an experiment degraded by quarantined units.

    When the run-farm supervisor benches poison-pill units and the
    spec's policy is :data:`DEGRADE_PARTIAL`, ``ctx.run`` resolves to
    this instead of raising — the invocation (a CLI verb, the report
    walk) completes, renders :meth:`notice` where the artifact would
    have gone, and the JSON artifact is flagged ``partial``.
    """

    experiment: str
    quarantined: Tuple[str, ...]
    total_units: int
    message: str

    def notice(self) -> str:
        units = ", ".join(self.quarantined[:8])
        more = ("" if len(self.quarantined) <= 8
                else f" (+{len(self.quarantined) - 8} more)")
        return (
            f"PARTIAL RESULTS: experiment '{self.experiment}' could not "
            f"complete {len(self.quarantined)}/{self.total_units} work "
            f"units;\nquarantined after exhausting retry attempts: "
            f"{units}{more}.\nCompleted units are preserved in the run "
            f"directory's artifact store — fix the cause and re-run with "
            f"--resume to fill the gaps."
        )


class ExperimentContext:
    """Threads streams/executor/fidelity uniformly into every runner and
    memoizes results per invocation.

    One context is built per CLI invocation (and one per report/trace
    walk), so anything two artifacts share — fig4's rows feeding fig6,
    table4 feeding table5's REM line — is computed exactly once.  The
    measurement-level content-addressed cache still sits underneath for
    cross-verb and cross-process reuse; this layer removes even the
    cache lookups for whole-artifact reuse within one invocation.
    """

    def __init__(
        self,
        streams: Optional["RandomStreams"] = None,
        executor: Optional["ParallelExecutor"] = None,
        tier: str = DEFAULT_TIER,
        samples: int = DEFAULT_SAMPLES,
        requests: int = DEFAULT_REQUESTS,
        engine: Optional[str] = None,
    ):
        from ..core import hybrid
        from ..core.executor import ParallelExecutor
        from ..core.rng import RandomStreams

        self.streams = streams if streams is not None else RandomStreams(2023)
        self.executor = executor if executor is not None else ParallelExecutor(1)
        self.tier = tier
        self.samples = samples
        self.requests = requests
        self.engine = hybrid.resolve_engine(engine)
        self._results: Dict[str, Any] = {}
        self._running: List[str] = []
        self._current: List[Experiment] = []
        # SLO-drift findings per completed experiment (repro.obs.slo).
        # Purely observational: warnings and JSON-artifact annotations,
        # never verdicts or exit codes.
        self.slo_findings: Dict[str, List[Any]] = {}

    @property
    def seed(self) -> int:
        return self.streams.root_seed

    @property
    def smoke(self) -> bool:
        return self.tier == SMOKE_TIER

    def fidelity(self, spec: Optional[Experiment] = None) -> ResolvedFidelity:
        """The active tier of ``spec`` (default: the running experiment)
        resolved against the invocation fidelity."""
        if spec is None:
            if not self._current:
                raise RuntimeError(
                    "ctx.fidelity() without an experiment only works "
                    "inside a runner"
                )
            spec = self._current[-1]
        return spec.tier(self.tier).resolve(self.samples, self.requests,
                                            smoke=self.smoke,
                                            engine=self.engine)

    def run(self, name: str) -> Any:
        """The (memoized) result of the registered experiment ``name``.

        If the run-farm supervisor quarantined units under this runner
        and the spec's degradation policy is :data:`DEGRADE_PARTIAL`,
        the memoized result is a :class:`PartialResult` instead of a
        raised error; :data:`DEGRADE_ABORT` specs propagate.
        """
        if name in self._results:
            return self._results[name]
        spec = get(name)
        if name in self._running:
            cycle = " -> ".join(self._running + [name])
            raise RuntimeError(f"experiment dependency cycle: {cycle}")
        self._running.append(name)
        self._current.append(spec)
        try:
            result = spec.runner(self)
        except Exception as exc:
            from ..core.executor import QuarantinedUnitError

            if (isinstance(exc, QuarantinedUnitError)
                    and spec.degradation == DEGRADE_PARTIAL):
                result = PartialResult(
                    experiment=name,
                    quarantined=tuple(exc.quarantined_units()),
                    total_units=exc.total,
                    message=str(exc),
                )
            else:
                raise
        finally:
            self._running.pop()
            self._current.pop()
        self._results[name] = result
        if not isinstance(result, PartialResult):
            # SLO burn check on the completed artifact.  Best-effort by
            # design: a telemetry bug must never take down a run.
            try:
                from ..obs import slo

                findings = slo.observe(name, result, smoke=self.smoke)
            except Exception:  # pragma: no cover — defensive
                logger.debug("slo evaluation failed for %s", name,
                             exc_info=True)
                findings = []
            if findings:
                self.slo_findings[name] = list(findings)
        return result


# ---------------------------------------------------------------------------
# The registry proper
# ---------------------------------------------------------------------------

_REGISTRY: Dict[str, Experiment] = {}
_ORDER: List[str] = []
_LOCK = threading.Lock()


def register(spec: Experiment) -> Experiment:
    """Add ``spec`` to the registry (idempotent re-registration allowed,
    so test reloads don't trip duplicate checks)."""
    with _LOCK:
        if spec.name not in _REGISTRY:
            _ORDER.append(spec.name)
        _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> Experiment:
    """The spec of ``name``, importing only the module that defines it.

    The modules of the experiments a spec depends on load when its
    runner asks for their results through ``ctx.run``.
    """
    if name not in _REGISTRY and name in _MODULES:
        importlib.import_module(_MODULES[name])
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"no registered experiment {name!r} (registered: {names()})"
        ) from None


def names() -> List[str]:
    """Every verb: the table's, then specs registered at run time.

    Imports nothing.
    """
    return list(_MODULES) + [name for name in _ORDER
                             if name not in _MODULES]


def title(name: str) -> str:
    """The title of ``name`` (its CLI help line), importing nothing."""
    return _TITLES[name] if name in _TITLES else _REGISTRY[name].title


def load_all() -> None:
    """Import every module of the table, for walks over the whole registry.

    A walk over every spec needs this; a single verb only needs
    :func:`get`.  The report generator is the registry's whole-table
    consumer, so it loads here as well: after this call every module a
    ``report`` run executes is imported.
    """
    for module in _MODULES.values():
        importlib.import_module(module)
    importlib.import_module("repro.analysis.report")
