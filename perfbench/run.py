"""Benchmark runner for ``python -m repro report``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload report-cold --seed 1 --seconds 50 --trace 0

Each workload is ``report`` at default fidelity, run as a fresh CLI process,
one invocation at a time (closed loop, one client).  With ``--trace 0`` it
times untraced invocations until ``--seconds`` is spent and reports
the medians of the end-to-end metrics, with CPU times rescaled to a
reference speed measured alongside each process (see ``speed.py``).  With
``--trace 1`` it also makes one traced invocation (see ``spans.py``) and
reports per-layer metrics.  Every
invocation's output is checked; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
GOLDEN = "EXPERIMENTS.md"
SETUP_PROBES = 7
# A run's medians need at least three invocations: in a fresh checkout the
# first one also compiles the program's bytecode.
MIN_INVOCATIONS = 3

# What a fresh process pays before any verb runs: interpreter start,
# ``import repro.cli`` and the registry walk that builds the parser.  It
# prints the fingerprint fields that only the program can answer.
SETUP_CODE = (
    "import sys, repro.cli as cli; cli.build_parser(); "
    "from repro.core.executor import usable_cpu_count; "
    "print(usable_cpu_count(), sys.version.split()[0])"
)


@dataclass(frozen=True)
class Workload:
    name: str
    flags: Tuple[str, ...]  # global CLI flags, before the ``report`` verb
    golden: bool  # output must equal EXPERIMENTS.md byte for byte


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("report-cold", (), golden=True),
    Workload("report-sim", ("--engine", "sim"), golden=False),
)}

END_TO_END = (("cpu_ref_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    cpu_ref_s: float  # cpu_s at the reference speed
    peak_rss_mb: float
    returncode: int
    output: bytes
    counters: Dict[str, float]
    stderr_tail: str
    problems: List[str] = field(default_factory=list)


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # Fixed string hashing: set and dict orders, and so the work done,
    # repeat from one invocation to the next.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(argv: Sequence[str], cwd: str, stdout, stderr,
          probe: speed.SpeedProbe) -> Tuple[int, float, float, float, float]:
    """Run a process to completion.

    Returns (exit code, wall s, cpu s, cpu s at the reference speed, peak
    RSS MB).  CPU time and peak RSS come from ``wait4`` on that one child
    and include the workers it reaped.
    """
    before = probe.read()
    start = time.perf_counter()
    proc = subprocess.Popen(list(argv), cwd=cwd, env=program_env(),
                            stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    after = probe.read()
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return (proc.returncode, wall, cpu,
            speed.reference_seconds(cpu, before, after),
            usage.ru_maxrss / 1024.0)


def read_counters(metrics_dir: str) -> Dict[str, float]:
    """Counters from the program's own ``--metrics-out`` JSONL export."""
    counters: Dict[str, float] = {}
    path = os.path.join(metrics_dir, "metrics.jsonl")
    if not os.path.exists(path):
        return counters
    with open(path) as handle:
        for line in handle:
            row = json.loads(line)
            if row.get("type") == "counter":
                counters[row["name"]] = row["value"]
    return counters


def invoke(workload: Workload, work: str, tag: str, probe: speed.SpeedProbe,
           prefix: Sequence[str] = (sys.executable, "-m", "repro")
           ) -> Invocation:
    """One ``report`` invocation of ``workload``; output kept in ``work``."""
    out = os.path.join(work, f"{tag}.md")
    metrics_dir = os.path.join(work, f"{tag}-metrics")
    argv = [*prefix, *workload.flags, "--metrics-out", metrics_dir,
            "report", "-o", out]
    err_path = os.path.join(work, f"{tag}.err")
    with open(err_path, "wb") as err:
        code, wall, cpu, cpu_ref, rss = spawn(argv, work, subprocess.DEVNULL,
                                              err, probe)
    with open(err_path, "rb") as err:
        tail = err.read()[-400:].decode(errors="replace")
    output = b""
    if os.path.exists(out):
        with open(out, "rb") as handle:
            output = handle.read()
    return Invocation(wall, cpu, cpu_ref, rss, code, output,
                      read_counters(metrics_dir), tail)


def check_output(workload: Workload, run: Invocation, golden: bytes,
                 first: Optional[Invocation]) -> List[str]:
    """Why ``run``'s output is wrong (empty when it is right)."""
    if run.returncode != 0:
        return [f"exit code {run.returncode}: {run.stderr_tail.strip()}"]
    problems = []
    if workload.golden and run.output != golden:
        problems.append(f"output differs from {GOLDEN}")
    if not workload.golden:
        text = run.output.decode(errors="replace")
        for n in range(1, 6):
            if f"[HOLDS] O{n}:" not in text:
                problems.append(f"observation O{n} does not read HOLDS")
        if first is not None and run.output != first.output:
            problems.append("output differs from this run's first invocation")
    if first is not None:
        for name in sorted(set(run.counters) | set(first.counters)):
            a, b = first.counters.get(name, 0), run.counters.get(name, 0)
            if a != b:
                problems.append(f"count drift: {name} {a} -> {b}")
    return problems


class Ledger:
    """Every checked invocation of one benchmark run."""

    def __init__(self, workload: Workload, golden: bytes):
        self.workload = workload
        self.golden = golden
        self.first: Optional[Invocation] = None
        self.attempted = 0
        self.failed = 0

    def check(self, run: Invocation, label: str) -> Invocation:
        run.problems = check_output(self.workload, run, self.golden,
                                    self.first)
        self.attempted += 1
        if run.problems:
            self.failed += 1
            for problem in run.problems:
                print(f"FAIL {label}: {problem}", file=sys.stderr)
        if self.first is None and run.returncode == 0:
            self.first = run
        return run


def measure_setup(work: str, probe: speed.SpeedProbe
                  ) -> Tuple[List[float], List[float], str]:
    """Set-up probes: (walls, CPU s at the reference speed, program info)."""
    walls, times, info = [], [], ""
    for i in range(SETUP_PROBES):
        path = os.path.join(work, f"setup-{i}.out")
        with open(path, "wb") as out:
            code, wall, _, cpu_ref, _ = spawn(
                [sys.executable, "-c", SETUP_CODE], work, out,
                subprocess.DEVNULL, probe)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        with open(path) as out:
            info = out.read().strip()
        walls.append(wall)
        times.append(cpu_ref)
    return walls, times, info


def fingerprint(program_info: str, loadavg: float, cpu: Optional[int]
                ) -> Dict[str, object]:
    cpus, _, version = program_info.partition(" ")
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:  # not Linux: keep what platform reports
        pass
    return {"usable_cpu_count": int(cpus), "python": version,
            "cpu_model": model, "pinned_cpu": cpu,
            "loadavg_1m": round(loadavg, 2)}


def layer_metrics(recorded: Sequence[spans.Span], c: Dict[str, float],
                  overhead_s: float
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced invocation: self times and span
    counts from ``recorded``, work counts from the program's counters ``c``.
    """
    own = spans.self_times(recorded)
    calls: Dict[str, int] = {}
    for span in recorded:
        calls[span.name] = calls.get(span.name, 0) + 1

    def s(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    def n(*names: str) -> int:
        return sum(calls.get(name, 0) for name in names)

    engine_s = s("engine")
    events = c.get("sim.events_fired", 0)
    return {
        "import.s": (s("import"), "s"),
        "profiles.s": (s("profiles", "profiles.build"), "s"),
        "profiles.builds": (n("profiles.build"), "count"),
        "profiles.lookups": (n("profiles"), "count"),
        "measurement.self_s": (s("measurement"), "s"),
        "measurement.probes_simulated": (c.get("probe.simulated", 0), "count"),
        "measurement.probes_analytic": (c.get("analytic.hits", 0), "count"),
        "measurement.samples_reused": (c.get("probe.samples_reused", 0),
                                       "count"),
        "queueing.s": (s("queueing", "queueing.reference"), "s"),
        "queueing.calls": (n("queueing", "queueing.reference"), "count"),
        "queueing.reference_s": (s("queueing.reference"), "s"),
        "queueing.reference_fallbacks": (n("queueing.reference"), "count"),
        "analytic.s": (s("analytic", "analytic.predict"), "s"),
        "analytic.predictions": (n("analytic.predict"), "count"),
        "engine.s": (engine_s, "s"),
        "engine.events": (events, "count"),
        "engine.events_per_s": (events / engine_s if engine_s else 0.0, "1/s"),
        "cluster.s": (s("cluster"), "s"),
        "cluster.scenarios": (n("cluster"), "count"),
        "fabric.enqueued": (c.get("fabric.port.enqueued", 0), "count"),
        "fabric.marked": (c.get("fabric.ecn.marked", 0), "count"),
        "fabric.dropped": (c.get("fabric.port.dropped", 0), "count"),
        "balancer.s": (s("balancer"), "s"),
        "balancer.calls": (n("balancer"), "count"),
        "executor.map_s": (s("executor"), "s"),
        "executor.units": (n("executor.unit"), "count"),
        "cache.hits": (c.get("cache_hits", 0), "count"),
        "cache.misses": (c.get("cache_misses", 0), "count"),
        "cache.get_s": (s("cache.get"), "s"),
        "cache.put_s": (s("cache.put"), "s"),
        "report.render_s": (s("report"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }


def run_benchmark(workload: Workload, seed: int, seconds: float, trace: bool,
                  golden: bytes, work: str, cpu: Optional[int],
                  probe: speed.SpeedProbe) -> Dict[str, object]:
    loadavg = os.getloadavg()[0]
    ledger = Ledger(workload, golden)
    setup_walls, setup_times, info = measure_setup(work, probe)
    setup_s = statistics.median(setup_times)
    print("fingerprint "
          + json.dumps(fingerprint(info, loadavg, cpu), sort_keys=True))
    print(f"seed {seed}")
    print("setup wall_s " + " ".join(f"{w:.3f}" for w in setup_walls))

    # Closed loop: after MIN_INVOCATIONS, start another invocation only
    # while it is expected to finish inside --seconds.
    runs: List[Invocation] = []
    started = time.perf_counter()
    while True:
        run = ledger.check(invoke(workload, work, f"run-{len(runs)}", probe),
                           f"run {len(runs)}")
        runs.append(run)
        elapsed = time.perf_counter() - started
        typical = statistics.median(r.wall_s for r in runs)
        if len(runs) >= MIN_INVOCATIONS and elapsed + typical > seconds:
            break
    good = [r for r in runs if not r.problems] or runs
    wall = statistics.median(r.wall_s for r in good)
    values = {
        "cpu_ref_s": statistics.median(r.cpu_ref_s for r in good),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in good),
        "setup_s": setup_s,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    # Host times, unscaled: they move with the host's speed, so they are
    # shown but not gated.  Wall includes the calibration loop's share.
    for name in ("wall_s", "cpu_s", "cpu_ref_s"):
        print(f"invocations {len(runs)}: {name} "
              + " ".join(f"{getattr(r, name):.3f}" for r in runs))
    print(f"wall_s {wall:.6g} s (median, unscaled)")
    print(f"cpu_s {statistics.median(r.cpu_s for r in good):.6g} s "
          "(median, unscaled)")
    for name in sorted(runs[0].counters):
        seen = sorted({r.counters.get(name, 0) for r in runs})
        print(f"count {name} {' / '.join(str(v) for v in seen)}")

    if trace:
        spans_dir = os.path.join(work, "spans")
        os.makedirs(spans_dir)
        traced = ledger.check(
            invoke(workload, work, "traced", probe,
                   prefix=(sys.executable, os.path.join(HERE, "spans.py"),
                           "--out", spans_dir, "--")), "traced")
        metrics = layer_metrics(spans.load_spans(spans_dir), traced.counters,
                                traced.wall_s - wall)

    error_rate = ledger.failed / ledger.attempted
    print(f"error_rate {error_rate:.4f} ratio "
          f"({ledger.failed} failed / {ledger.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in (os.path.join("src", "repro", "cli.py"), GOLDEN)
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"not a checkout of the program: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, GOLDEN), "rb") as handle:
        golden = handle.read()
    scratch = os.path.join(HERE, ".scratch")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    cpu = speed.pinned_cpu()
    try:
        with speed.SpeedProbe(cpu) as probe:
            result = run_benchmark(WORKLOADS[args.workload], args.seed,
                                   args.seconds, bool(args.trace), golden,
                                   work, cpu, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
