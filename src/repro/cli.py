"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro fig4              # Fig. 4 table
    python -m repro fig5              # Fig. 5 rate sweeps
    python -m repro fig6              # Fig. 6 power / efficiency
    python -m repro fig7              # Fig. 7 trace sparkline
    python -m repro table4            # Table 4 trace replay
    python -m repro table5            # Table 5 TCO
    python -m repro observations     # O1-O5 verdicts
    python -m repro faults --smoke    # availability study, CI fidelity
    python -m repro report [-o FILE]  # full EXPERIMENTS.md
    python -m repro trace fig4 --smoke   # flight-recorder trace of a run

Every experiment verb is a generic walk over the experiment registry
(:mod:`repro.experiments.registry`): the verb list and help lines come
from its table, which names each verb's module without importing it;
``--csv`` support, ``--smoke`` fidelity, ``--json`` artifact export, and
dependency resolution (fig6 reuses fig4's rows, table5 reuses table4)
derive from the registered :class:`Experiment` specs — a table row plus
its spec is all it takes to get a verb here, a section in the smoke
matrix, and a JSON artifact schema.

Any verb takes ``--trace`` (record the run into the flight recorder and
write ``trace.jsonl`` + Chrome ``trace.json`` on exit), ``--trace-dir``
(where to write them; implies ``--trace``) and ``--log-level`` (the
``repro.*`` logger hierarchy).  The timing footer on stderr always
prints — even when a verb fails — with probe/cache/kernel/trace totals
plus every other non-zero counter in sorted order and a one-line
registry summary.

Telemetry (:mod:`repro.obs`): every verb takes ``--metrics-out DIR``
(write the full metric registry as OpenMetrics ``metrics.prom`` +
``metrics.jsonl`` on exit) and ``--metrics-port N`` (serve live
``GET /metrics`` on localhost while the run is in flight; 0 picks an
ephemeral port).  ``repro status <run-dir>`` reports a supervised run's
fleet progress from its manifest and heartbeats (``--watch`` to follow,
``--json`` for machines).

Run-farm supervision (``--run-dir``, ``--resume``, ``--unit-timeout``,
``--max-unit-attempts``) journals every work unit to a resumable
manifest, enforces per-unit wall-clock deadlines with SIGKILL, retries
failures with backoff, and quarantines poison pills::

    python -m repro report --jobs 4 --run-dir runs/report
    # ... driver or worker dies mid-run (kill -9, OOM, Ctrl-C) ...
    python -m repro report --jobs 4 --resume runs/report
    # only incomplete units re-execute; output is byte-identical

A run that completes with quarantined units exits with code 3 and (for
``degradation="partial"`` experiments, or via ``--json``) produces a
partial-results artifact instead of nothing.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from typing import TYPE_CHECKING, List, Optional

from .core import hybrid, trace
from .experiments import registry
from .experiments.registry import (
    DEFAULT_TIER,
    SMOKE_TIER,
    ExperimentContext,
    PartialResult,
)
from .obs import metrics as obs_metrics

if TYPE_CHECKING:  # pragma: no cover
    from .core.executor import ParallelExecutor

# Import rule: parsing the command line loads only the modules above
# (the standard library, the registry and three small leaf modules).
# Everything a verb runs is imported where the verb is dispatched, and
# only on the path that uses it -- never inside per-probe or per-event
# code.

# A supervised run that finished with quarantined poison-pill units:
# every healthy unit completed (and is journaled + stored for resume),
# but the artifact is partial.  Distinct from argparse's 2 and the
# observations verdict's 1.
EXIT_PARTIAL = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SmartNIC datacenter-tax study (IISWC'23), reproduced in simulation",
    )
    parser.add_argument("--samples", type=int, default=200,
                        help="function-profile sample count (fidelity)")
    parser.add_argument("--requests", type=int, default=12_000,
                        help="requests simulated per rate probe")
    parser.add_argument("--seed", type=int, default=2023, help="root RNG seed")
    parser.add_argument("--engine", choices=hybrid.ENGINES,
                        default=hybrid.DEFAULT_ENGINE,
                        help="probe engine: 'hybrid' answers validated "
                             "off-knee rungs analytically (default); 'sim' "
                             "simulates every probe (byte-identical to the "
                             "pre-hybrid output)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for independent measurements "
                             "(0 = all cores; output is identical at any N)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persist measured results on disk and reuse "
                             "them across invocations")
    parser.add_argument("--smoke", action="store_true",
                        help="run at the experiment's smoke fidelity tier "
                             "(tiny deterministic subset, seconds, for CI)")
    parser.add_argument("--csv", default=None, metavar="FILE",
                        help="also write the result as CSV "
                             "(verbs whose spec has a CSV writer)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write the result as a JSON artifact "
                             "(validated against the spec's schema in CI)")
    parser.add_argument("--log-level", default="warning",
                        choices=("debug", "info", "warning", "error"),
                        help="level for the repro.* logger hierarchy")
    parser.add_argument("--trace", action="store_true",
                        help="record the run into the flight recorder and "
                             "write trace.jsonl + trace.json on exit")
    parser.add_argument("--trace-dir", default=None, metavar="DIR",
                        help="directory for trace files (implies --trace)")
    parser.add_argument("--metrics-interval", type=float,
                        default=trace.DEFAULT_METRICS_INTERVAL_S,
                        metavar="SECONDS",
                        help="window for queue-depth/utilization series "
                             "in the trace")
    parser.add_argument("--metrics-out", default=None, metavar="DIR",
                        help="write the metric registry as OpenMetrics "
                             "(metrics.prom) and JSONL (metrics.jsonl) "
                             "into DIR on exit")
    parser.add_argument("--metrics-port", type=int, default=None,
                        metavar="PORT",
                        help="serve live GET /metrics (OpenMetrics) on "
                             "127.0.0.1:PORT while the run is in flight "
                             "(0 picks an ephemeral port)")
    parser.add_argument("--run-dir", default=None, metavar="DIR",
                        help="run under the run-farm supervisor, journaling "
                             "every work unit to DIR/manifest.jsonl and "
                             "storing artifacts in DIR/artifacts (resumable "
                             "with --resume DIR)")
    parser.add_argument("--resume", default=None, metavar="MANIFEST",
                        help="resume an interrupted supervised run from its "
                             "manifest file (or run directory): completed "
                             "units are served from the artifact store, only "
                             "incomplete units re-execute")
    parser.add_argument("--unit-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-work-unit wall-clock deadline; a unit that "
                             "exceeds it is SIGKILLed and requeued "
                             "(implies run-farm supervision)")
    parser.add_argument("--max-unit-attempts", type=int, default=None,
                        metavar="N",
                        help="attempts before a failing unit is quarantined "
                             "as a poison pill (default 3; implies run-farm "
                             "supervision)")
    sub = parser.add_subparsers(dest="command", required=True)

    def _mirror_common(p: argparse.ArgumentParser) -> None:
        # The global flags are also accepted after the subcommand
        # (`repro faults --smoke`, `repro fig4 --json out.json`).
        # SUPPRESS defaults keep the subparser from clobbering
        # main-parser values.
        p.add_argument("--smoke", action="store_true",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--engine", choices=hybrid.ENGINES,
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--csv", metavar="FILE",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--json", metavar="FILE",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--log-level", choices=("debug", "info", "warning",
                                               "error"),
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--trace", action="store_true",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--trace-dir", metavar="DIR",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--metrics-interval", type=float, metavar="SECONDS",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--metrics-out", metavar="DIR",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--metrics-port", type=int, metavar="PORT",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--run-dir", metavar="DIR",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--resume", metavar="MANIFEST",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--unit-timeout", type=float, metavar="SECONDS",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--max-unit-attempts", type=int, metavar="N",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)

    # One verb per registered experiment, in the paper's artifact order.
    for name in registry.names():
        _mirror_common(sub.add_parser(name, help=registry.title(name)))
    report = sub.add_parser("report", help="regenerate EXPERIMENTS.md")
    report.add_argument("-o", "--output", default=None,
                        help="write to a file instead of stdout")
    _mirror_common(report)
    tracer = sub.add_parser(
        "trace", help="run an experiment with the flight recorder on and "
                      "export the trace"
    )
    tracer.add_argument("experiment", choices=registry.names(),
                        help="which experiment to trace")
    _mirror_common(tracer)
    status = sub.add_parser(
        "status", help="fleet progress of a supervised run (from its "
                       "manifest and heartbeats)"
    )
    # Deliberately NOT mirrored: `status` is a read-only observer, so
    # the execution flags (--jobs, --smoke, --trace, ...) don't apply.
    # Its --json is a flag (print a JSON document), unlike the global
    # FILE-valued --json, hence the distinct dest.
    status.add_argument("run_dir",
                        help="run directory (or manifest file) to inspect")
    status.add_argument("--watch", action="store_true",
                        help="refresh until the run has no incomplete units")
    status.add_argument("--interval", type=float, default=2.0,
                        metavar="SECONDS",
                        help="refresh period for --watch (default 2.0)")
    status.add_argument("--json", action="store_true", dest="status_json",
                        help="print one machine-readable JSON document "
                             "instead of text")
    status.add_argument("--log-level", choices=("debug", "info", "warning",
                                                "error"),
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    return parser


def _configure_logging(level_name: str) -> None:
    """One stderr handler on the ``repro`` root of the logger hierarchy."""
    root = logging.getLogger("repro")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root.handlers[:] = [handler]
    root.setLevel(getattr(logging, level_name.upper()))
    root.propagate = False


def _write_trace_files(trace_dir: str) -> None:
    """Export the active recorder as JSONL + Chrome trace_event JSON."""
    rec = trace.recorder()
    if rec is None:
        return
    os.makedirs(trace_dir, exist_ok=True)
    jsonl_path = os.path.join(trace_dir, "trace.jsonl")
    chrome_path = os.path.join(trace_dir, "trace.json")
    with open(jsonl_path, "w") as handle:
        trace.export_jsonl(handle, rec)
    with open(chrome_path, "w") as handle:
        trace.export_chrome(handle, rec)
    print(f"wrote {jsonl_path} and {chrome_path} "
          f"({len(rec)} events, {rec.dropped} dropped)", file=sys.stderr)


def _write_metrics_files(metrics_dir: str) -> None:
    """Export the metric registry as OpenMetrics text + JSONL."""
    from .obs.openmetrics import write_metrics_files

    prom_path, jsonl_path, count = write_metrics_files(
        metrics_dir, obs_metrics.registry())
    print(f"wrote {prom_path} and {jsonl_path} ({count} metrics)",
          file=sys.stderr)


def _experiment_name(args) -> Optional[str]:
    """The registered experiment a verb resolves to (None for report)."""
    if args.command == "trace":
        return args.experiment
    if args.command == "report":
        return None
    return args.command


def main(argv: Optional[List[str]] = None) -> int:
    # The logging setup is this invocation's: an in-process caller (a
    # test, an embedding script) gets its ``repro`` logger back as it was.
    root = logging.getLogger("repro")
    handlers, level, propagate = root.handlers[:], root.level, root.propagate
    try:
        return _main(argv)
    finally:
        root.handlers[:] = handlers
        root.setLevel(level)
        root.propagate = propagate


def _main(argv: Optional[List[str]]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "status":
        # Read-only observer verb: no executor, cache, or trace setup —
        # and none of the execution-flag validation below applies.
        _configure_logging(args.log_level)
        from .runfarm import status as fleet_status

        return fleet_status.run_cli(args)
    name = _experiment_name(args)
    if args.csv and (name is None or not registry.get(name).supports_csv):
        parser.error(
            f"--csv is not supported by '{args.command}' "
            f"(supported: {', '.join(registry.csv_capable())})"
        )
    if name is None and args.json:
        parser.error(f"--json is not supported by '{args.command}'")
    if args.metrics_interval <= 0:
        parser.error("--metrics-interval must be positive")
    if args.metrics_port is not None and not 0 <= args.metrics_port <= 65535:
        parser.error("--metrics-port must be in [0, 65535]")
    if args.unit_timeout is not None and args.unit_timeout <= 0:
        parser.error("--unit-timeout must be positive")
    if args.max_unit_attempts is not None and args.max_unit_attempts < 1:
        parser.error("--max-unit-attempts must be >= 1")
    if args.run_dir and args.resume:
        parser.error("--run-dir and --resume are mutually exclusive "
                     "(--resume already names the run directory)")
    _configure_logging(args.log_level)
    obs_metrics.reset()
    from .core.cache import ResultCache, configure
    from .core.executor import ParallelExecutor, QuarantinedUnitError
    from .core.rng import RandomStreams

    # Run-farm supervision activates when any runfarm flag is given;
    # --resume additionally adopts the original run's fidelity so the
    # resumed output is byte-identical.  Must run before the cache is
    # configured (the run dir doubles as the artifact store) and before
    # the streams are built (resume may override --seed).
    executor: ParallelExecutor
    if _runfarm_active(args):
        executor = _setup_runfarm(args, parser)
    else:
        # One executor (one worker pool) for the whole invocation:
        # every phase of a multi-phase verb reuses the same workers
        # instead of re-paying pool startup per batch.
        executor = ParallelExecutor(args.jobs)
    # After runfarm setup: a resumed manifest may have adopted the
    # original run's engine so the resumed output stays byte-identical.
    hybrid.configure_engine(args.engine)
    configure(ResultCache(cache_dir=args.cache_dir))
    streams = RandomStreams(args.seed)
    tracing = args.trace or args.trace_dir is not None or args.command == "trace"
    if tracing:
        trace.enable(metrics_interval_s=args.metrics_interval)
    metrics_server = None
    if args.metrics_port is not None:
        from .obs.openmetrics import MetricsServer

        metrics_server = MetricsServer(port=args.metrics_port).start()
        print(f"serving metrics at "
              f"http://127.0.0.1:{metrics_server.port}/metrics",
              file=sys.stderr)
    started = time.time()
    try:
        try:
            return _dispatch(args, streams, executor)
        except QuarantinedUnitError as exc:
            # An abort-degradation experiment (or the report) finished
            # its healthy units but quarantined poison pills.  All
            # progress is journaled; tell the operator how to retry.
            print(f"RUN INCOMPLETE: {exc}", file=sys.stderr)
            resume_hint = args.resume or args.run_dir
            if resume_hint:
                print(f"resume with: --resume {resume_hint}",
                      file=sys.stderr)
            return EXIT_PARTIAL
    finally:
        # The footer (and any trace/metrics files) must survive a
        # failing verb: a run that died mid-study still reports what it
        # actually did.
        try:
            executor.close()
            if tracing:
                _write_trace_files(args.trace_dir or ".")
            if args.metrics_out:
                _write_metrics_files(args.metrics_out)
        finally:
            if metrics_server is not None:
                metrics_server.close()
            _print_footer(started, executor)
            trace.disable()


def _runfarm_active(args) -> bool:
    return bool(args.run_dir or args.resume
                or args.unit_timeout is not None
                or args.max_unit_attempts is not None)


def _invocation_topology(command: str, tier: str) -> str:
    """The topology id this invocation will realize.

    Only the ``cluster`` verb fans out over a fabric; every other verb
    runs the seed repo's single-node world.
    """
    if command == "cluster":
        from .experiments.cluster import tier_topology_id

        return tier_topology_id(tier)
    from .cluster import single_node_spec

    return single_node_spec().topology_id()


def _setup_runfarm(args, parser) -> ParallelExecutor:
    """Build the supervised executor (and mutate args for resume/cache).

    Resolves the run directory (``--run-dir``, the ``--resume`` target,
    or ``runs/<verb>`` when only timeout/attempt flags are given), opens
    the manifest, adopts a resumed run's fidelity knobs, and points the
    result cache at the run's artifact store unless ``--cache-dir`` was
    given explicitly.
    """
    from .core.cache import CODE_VERSION
    from .faults.retry import RetryPolicy
    from .runfarm.manifest import RunManifest
    from .runfarm.supervisor import (
        DEFAULT_RETRY,
        SupervisedExecutor,
        SupervisorConfig,
        load_prior_done,
    )

    if args.resume:
        manifest_path = args.resume
        if os.path.isdir(manifest_path):
            manifest_path = os.path.join(manifest_path, "manifest.jsonl")
        if not os.path.exists(manifest_path):
            parser.error(f"--resume: no manifest at {args.resume}")
        state = RunManifest.load(manifest_path)
        header = state.header
        if header.get("verb") and header["verb"] != args.command:
            parser.error(
                f"--resume: manifest {manifest_path} was recorded by "
                f"'{header['verb']}', not '{args.command}'"
            )
        if header.get("code_version") not in (None, CODE_VERSION):
            # Not fatal: cache keys are salted by CODE_VERSION, so stale
            # artifacts simply miss and re-execute.
            print(f"warning: resuming a manifest from code version "
                  f"{header['code_version']} under {CODE_VERSION}; "
                  f"all units will re-execute", file=sys.stderr)
        # Adopt the original run's fidelity so the resumed output is
        # byte-identical to an uninterrupted run.
        args.seed = int(header.get("seed", args.seed))
        args.samples = int(header.get("samples", args.samples))
        args.requests = int(header.get("requests", args.requests))
        if header.get("tier"):
            args.smoke = header["tier"] == SMOKE_TIER
        if header.get("engine"):
            args.engine = header["engine"]
        if header.get("topology"):
            expected = _invocation_topology(
                args.command, SMOKE_TIER if args.smoke else DEFAULT_TIER)
            if header["topology"] != expected:
                parser.error(
                    f"--resume: manifest {manifest_path} was recorded "
                    f"for topology '{header['topology']}', but this "
                    f"invocation realizes '{expected}'; completed units "
                    f"would mix incompatible clusters"
                )
        run_dir = state.run_dir
        print(f"resuming {manifest_path}: {state.summary()}",
              file=sys.stderr)
    else:
        run_dir = args.run_dir or os.path.join("runs", args.command)
    manifest = RunManifest(run_dir)
    prior_done = load_prior_done(manifest.path)
    if args.cache_dir is None:
        # The run directory doubles as the artifact store: completed
        # units are resume-served straight from it.
        args.cache_dir = os.path.join(run_dir, "artifacts")
    retry = DEFAULT_RETRY
    if args.max_unit_attempts is not None:
        retry = RetryPolicy(
            timeout_s=retry.timeout_s,
            max_attempts=args.max_unit_attempts,
            backoff_factor=retry.backoff_factor,
            jitter_fraction=retry.jitter_fraction,
            max_elapsed_s=retry.max_elapsed_s,
        )
    config = SupervisorConfig(
        unit_timeout_s=args.unit_timeout,
        retry=retry,
        heartbeat_dir=os.path.join(run_dir, "heartbeats"),
    )
    executor = SupervisedExecutor(args.jobs, manifest=manifest,
                                  config=config, prior_done=prior_done)
    tier = SMOKE_TIER if args.smoke else DEFAULT_TIER
    manifest.begin_generation(
        verb=args.command, seed=args.seed, samples=args.samples,
        requests=args.requests,
        tier=tier,
        engine=args.engine,
        topology=_invocation_topology(args.command, tier),
        jobs=args.jobs, code_version=CODE_VERSION,
        argv=list(sys.argv[1:]),
    )
    return executor


def _print_footer(started: float,
                  executor: Optional[ParallelExecutor] = None) -> None:
    counters = obs_metrics.registry().counter_values()
    parts = [
        f"{time.time() - started:.1f}s",
        f"probes: {counters.get(obs_metrics.PROBES_SIMULATED, 0)} simulated, "
        f"{counters.get(obs_metrics.ANALYTIC_HITS, 0)} analytic, "
        f"{counters.get(obs_metrics.PROBES_SAVED, 0)} saved",
        f"cache {counters.get(obs_metrics.CACHE_HITS, 0)} hit / "
        f"{counters.get(obs_metrics.CACHE_MISSES, 0)} miss",
        f"kernel {counters.get(obs_metrics.EVENTS_SCHEDULED, 0)} sched / "
        f"{counters.get(obs_metrics.EVENTS_FIRED, 0)} fired",
    ]
    summary = getattr(executor, "summary", None)
    if summary is not None:  # a supervised run's run-farm health
        parts.append(summary())
    # Every other non-zero counter, in sorted (stable) order, so new
    # subsystems surface in the footer without bespoke formatting.
    shown = {obs_metrics.PROBES, obs_metrics.PROBES_SIMULATED,
             obs_metrics.ANALYTIC_HITS, obs_metrics.PROBES_SAVED,
             obs_metrics.CACHE_HITS, obs_metrics.CACHE_MISSES,
             obs_metrics.EVENTS_SCHEDULED, obs_metrics.EVENTS_FIRED}
    parts.extend(f"{name} {value}"
                 for name, value in sorted(counters.items())
                 if value and name not in shown)
    rec = trace.recorder()
    if rec is not None:
        parts.append(trace.summary_line(rec))
    parts.append(obs_metrics.summary_line())
    print(f"[{' | '.join(parts)}]", file=sys.stderr)


def _write_json_artifact(path: str, spec, ctx: ExperimentContext,
                         result, *, partial: bool = False,
                         quarantined=()) -> None:
    from .analysis.export import build_artifact, write_artifact
    from .obs import slo as slo_mod

    if partial:
        payload = None
    else:
        payload = spec.to_json(result) if spec.to_json is not None else result
    artifact = build_artifact(
        experiment=spec.name,
        title=spec.title,
        tier=ctx.tier,
        seed=ctx.seed,
        fidelity=ctx.fidelity(spec).__dict__,
        result=payload,
        partial=partial,
        quarantined=quarantined,
        slo=slo_mod.block(getattr(ctx, "slo_findings", {}).get(spec.name, ())),
    )
    with open(path, "w") as handle:
        write_artifact(handle, artifact)
    print(f"wrote {path}", file=sys.stderr)


def _dispatch(args, streams, executor) -> int:
    """Generic registry-driven verb driver.

    One :class:`ExperimentContext` per invocation carries the streams,
    the shared worker pool, the fidelity tier, and the per-invocation
    result memo — so a verb with dependencies (fig6, table5,
    observations) computes each upstream artifact exactly once.
    """
    ctx = ExperimentContext(
        streams=streams,
        executor=executor,
        tier=SMOKE_TIER if args.smoke else DEFAULT_TIER,
        samples=args.samples,
        requests=args.requests,
        engine=args.engine,
    )
    if args.command == "report":
        from .analysis.report import generate_report

        text = generate_report(samples=args.samples, n_requests=args.requests,
                               streams=streams, executor=executor, ctx=ctx)
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
        return 0

    from .core.executor import QuarantinedUnitError

    name = _experiment_name(args)
    spec = registry.get(name)
    try:
        result = ctx.run(name)
    except QuarantinedUnitError as exc:
        # Abort-degradation spec: no partial rendering, but the JSON
        # artifact (if requested) still records what was quarantined so
        # CI can distinguish "degraded" from "crashed".
        if args.json:
            _write_json_artifact(args.json, spec, ctx, None, partial=True,
                                 quarantined=exc.quarantined_units())
        raise
    if isinstance(result, PartialResult):
        # Partial-degradation spec: the run completed around its poison
        # pills; render the degradation notice instead of the table.
        print(result.notice())
        if args.json:
            _write_json_artifact(args.json, spec, ctx, None, partial=True,
                                 quarantined=result.quarantined)
        return EXIT_PARTIAL
    print(spec.render(result))
    if args.csv:
        with open(args.csv, "w", newline="") as handle:
            spec.csv_writer(handle, result)
    if args.json:
        _write_json_artifact(args.json, spec, ctx, result)
    if args.command == "trace":
        rec = trace.recorder()
        if rec is not None:
            counts = ", ".join(f"{cat}={n}" for cat, n in
                               sorted(rec.category_counts().items()))
            print(f"trace categories: {counts}", file=sys.stderr)
    if spec.verdict is not None and not ctx.smoke:
        # Science gates (the observations exit code) only bind at full
        # fidelity; a smoke run validates plumbing, not claims.
        return spec.verdict(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
