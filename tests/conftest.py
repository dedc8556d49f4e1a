"""Runs the whole suite shares, and the record of what code they execute.

The verb runs here are the program as a user runs it: fresh
``python -m repro`` processes at ``--smoke`` (with the flag paths folded
into them), and the default ``report`` in-process under both engines
and at ``--jobs 2``.
Each runs under a C-level :class:`cProfile.Profile`, which records every
code object under ``src/repro`` that was entered.  The cold-start and
golden tests check what the runs print; ``tests/test_module_graph.py``
fails on any definition none of them executed.

When a selected test needs the fresh processes, they start as soon as
collection ends, at the lowest CPU priority, and the queue advances
after every test: one at a time while other tests run, so on a second
core they finish alongside the rest of the suite, and two at a time
while a test waits for them.  No thread is involved, so the in-process
tests that fork see a single-threaded parent.
"""

from __future__ import annotations

import contextlib
import cProfile
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

import pytest

from repro.experiments import registry

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

# (path relative to src/, co_firstlineno, co_name) of a code object that ran.
CodeKey = Tuple[str, int, str]

# Runs ``python -m repro ARGS`` from ``-c TRACED OUT ARGS`` with the
# profiler on, then writes the src/repro code objects that ran to
# OUT.<pid>.json.  A forked multiprocessing worker inherits the running
# profiler; its bootstrap clears multiprocessing's finalizer registry and
# then calls the after-fork hooks, so the hook arms the worker's own dump
# for when it exits.
_TRACED = r"""
import cProfile, json, os, runpy, sys
from multiprocessing import util

OUT, PACKAGE = sys.argv[1], sys.argv[2]
profiler = cProfile.Profile(subcalls=False, builtins=False)


def dump():
    profiler.disable()
    ran = {(s.code.co_filename, s.code.co_firstlineno, s.code.co_name)
           for s in profiler.getstats() if not isinstance(s.code, str)}
    with open(f"{OUT}.{os.getpid()}.json", "w") as handle:
        json.dump(sorted(k for k in ran if k[0].startswith(PACKAGE)), handle)


util.register_after_fork(
    profiler, lambda _p: util.Finalize(None, dump, exitpriority=100))
sys.argv = ["repro", *sys.argv[3:]]
status = 0
profiler.enable()
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit as exit:
    status = exit.code
finally:
    dump()
sys.exit(status)
"""

# Extra flags per verb, given before it: each flag path runs inside a
# verb's own process instead of starting one more.  ``{dir}`` is the
# session's work directory.
VERB_FLAGS: Dict[str, Tuple[str, ...]] = {
    # --trace on a knee verb reads a verdict-only rung's p99.
    "fig4": ("--csv", "{dir}/fig4.csv", "--metrics-out", "{dir}/fig4-metrics",
             "--metrics-interval", "0.0005", "--trace"),
    "fig5": ("--csv", "{dir}/fig5.csv", "--trace"),
    "fig6": ("--csv", "{dir}/fig6.csv"),
    "table5": ("--csv", "{dir}/table5.csv"),
    # cluster is the only verb that fills a Histogram; its supervised run
    # directory is what --resume and status read below.
    "cluster": ("--metrics-out", "{dir}/cluster-metrics",
                "--metrics-interval", "0.0005",
                "--run-dir", "{dir}/cluster-run"),
}

# The recorded processes beyond one per verb.
EXTRA_RUNS: Dict[str, Tuple[str, ...]] = {
    # A supervised report renders its slowest-units section; --jobs 2
    # runs its units in forked workers, which ship their trace events.
    "report": ("--samples", "20", "--requests", "600", "--jobs", "2",
               "--run-dir", "{dir}/report-run", "--trace-dir",
               "{dir}/report-trace", "report", "--smoke",
               "-o", "{dir}/report.md"),
    "resume": ("cluster", "--smoke", "--resume", "{dir}/cluster-run"),
    "status": ("status", "{dir}/cluster-run"),
    "status-json": ("status", "{dir}/cluster-run", "--json"),
    "trace": ("trace", "fig7", "--smoke"),
}
# These read the cluster run's directory, so they run after it.
_AFTER_CLUSTER = ("resume", "status", "status-json")

# A test waiting this long on a recorded process kills the ones running.
_TIMEOUT_S = 300.0

Run = Tuple[str, Tuple[str, ...]]  # (label, argv after ``-m repro``)


def _verb_args(name: str) -> Tuple[str, ...]:
    """One verb at ``--smoke`` with ``--json`` and its extra flags."""
    return ("--samples", "20", "--requests", "600", *VERB_FLAGS.get(name, ()),
            name, "--smoke", "--json", "{dir}/" + name + ".json")


def _kill(proc: subprocess.Popen) -> None:
    """Kill a recorded process with the workers it forked."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)


def _key(path: str, line: int, name: str) -> CodeKey:
    return (os.path.relpath(os.path.realpath(path), SRC), line, name)


class ExecutionRecord:
    """The code that ran under the recorded runs of one session.

    Each fresh process runs in ``workdir``, so files a verb writes to the
    current directory (``--trace`` with no ``--trace-dir``) land there.
    """

    def __init__(self, workdir: Path):
        self.workdir = workdir
        (workdir / "ran").mkdir()
        (workdir / "out").mkdir()
        self.ran: Set[CodeKey] = set()
        self.reported = False  # has an in-process report run yet?
        # The environment before any test runs: a test may set variables
        # (chaos injection, say) while the queue advances.
        self._env = dict(os.environ, PYTHONPATH=str(SRC))
        self._queue: Optional[List[List[Run]]] = None  # chains, run in order
        self._running: Dict[str, Tuple[subprocess.Popen, List[Run]]] = {}
        self._done: Dict[str, subprocess.CompletedProcess] = {}

    @contextlib.contextmanager
    def recording(self) -> Iterator[None]:
        """Record what runs in this process inside the block."""
        profiler = cProfile.Profile(subcalls=False, builtins=False)
        profiler.enable()
        try:
            yield
        finally:
            profiler.disable()
            package = str(PACKAGE)
            self.ran.update(
                _key(s.code.co_filename, s.code.co_firstlineno,
                     s.code.co_name)
                for s in profiler.getstats()
                if not isinstance(s.code, str)
                and os.path.realpath(s.code.co_filename).startswith(package))

    def start(self) -> None:
        """Queue every recorded process, once per session."""
        if self._queue is not None:
            return
        self._queue = [[("report", EXTRA_RUNS["report"])]]  # longest first
        for name, _module, _title in registry.TABLE:
            chain = [(name, _verb_args(name))]
            if name == "cluster":
                chain += [(label, EXTRA_RUNS[label])
                          for label in _AFTER_CLUSTER]
            self._queue.append(chain)
        self._queue.append([("trace", EXTRA_RUNS["trace"])])
        self.pump()

    def _launch(self, label: str, args: Tuple[str, ...]) -> subprocess.Popen:
        out = self.workdir / "out" / label
        with open(f"{out}.stdout", "w") as stdout, \
                open(f"{out}.stderr", "w") as stderr:
            proc = subprocess.Popen(
                [sys.executable, "-c", _TRACED,
                 str(self.workdir / "ran" / label), str(PACKAGE),
                 *(arg.format(dir=self.workdir) for arg in args)],
                stdout=stdout, stderr=stderr, env=self._env,
                cwd=self.workdir, start_new_session=True)
        # Lowest priority: the suite's own tests keep their core.
        os.setpriority(os.PRIO_PROCESS, proc.pid, 19)
        return proc

    def pump(self, width: int = 1) -> None:
        """Collect finished processes; keep ``width`` of them running."""
        for label, (proc, rest) in list(self._running.items()):
            if proc.poll() is None:
                continue
            del self._running[label]
            out = self.workdir / "out" / label
            self._done[label] = subprocess.CompletedProcess(
                proc.args, proc.returncode,
                Path(f"{out}.stdout").read_text(),
                Path(f"{out}.stderr").read_text())
            if rest:
                self._queue.insert(0, rest)
        while self._queue and len(self._running) < width:
            (label, args), *rest = self._queue.pop(0)
            self._running[label] = (self._launch(label, args), rest)

    def result(self, label: str) -> subprocess.CompletedProcess:
        """The finished recorded process ``label``, waiting for it."""
        self.start()
        deadline = time.monotonic() + _TIMEOUT_S
        while label not in self._done:
            self.pump(width=2)
            if label in self._done:
                break
            if time.monotonic() > deadline:
                for proc, _rest in self._running.values():
                    _kill(proc)  # collected as failed by the next pump
                deadline = time.monotonic() + _TIMEOUT_S
            time.sleep(0.01)
        return self._done[label]

    def close(self) -> None:
        for proc, _rest in self._running.values():
            _kill(proc)
            proc.wait()
        self._running.clear()
        self._queue = []
        shutil.rmtree(self.workdir, ignore_errors=True)

    def executed(self) -> Set[CodeKey]:
        """Everything recorded so far, in this process and the fresh ones."""
        ran = set(self.ran)
        for dump in (self.workdir / "ran").glob("*.json"):
            ran.update(_key(*entry) for entry in json.loads(dump.read_text()))
        return ran


_RECORD = pytest.StashKey[ExecutionRecord]()


def _record(config) -> ExecutionRecord:
    if _RECORD not in config.stash:
        config.stash[_RECORD] = ExecutionRecord(
            Path(tempfile.mkdtemp(prefix="repro-")))
    return config.stash[_RECORD]


def pytest_collection_finish(session) -> None:
    if session.config.option.collectonly:
        return
    if any("fresh_runs" in getattr(item, "fixturenames", ())
           for item in session.items):
        _record(session.config).start()


def pytest_runtest_teardown(item) -> None:
    record = item.config.stash.get(_RECORD, None)
    if record is not None:
        record.pump()


def pytest_sessionfinish(session) -> None:
    record = session.config.stash.get(_RECORD, None)
    if record is not None:
        record.close()


@pytest.fixture(scope="session")
def execution(pytestconfig) -> ExecutionRecord:
    """The session's record of what the verb runs executed."""
    return _record(pytestconfig)


@pytest.fixture(scope="session")
def fresh_runs(execution) -> ExecutionRecord:
    """The record, with its fresh verb processes started."""
    execution.start()
    return execution


def verb_run(runs: ExecutionRecord, name: str) -> Tuple[
        subprocess.CompletedProcess, Path]:
    """A verb's recorded ``--smoke`` process, and its JSON artifact."""
    return runs.result(name), runs.workdir / f"{name}.json"


@pytest.fixture
def forked_workers(monkeypatch):
    """``--jobs > 1`` forks its workers on any host: two usable cores,
    and no batch is too small to fork for."""
    from repro.core import executor

    monkeypatch.setattr(executor, "usable_cpu_count", lambda: 2)
    monkeypatch.setattr(executor, "MIN_PARALLEL_SECONDS", float("-inf"))


# -- the default report, in-process: both engines, and --jobs 2 ---------------

def _record_report(execution: ExecutionRecord, argv):
    """Run ``main(argv)`` recorded; return its status and counters.

    The first report of the session starts from an empty profile cache,
    as a fresh process does, so the builders it needs run inside the
    recording whatever earlier tests built.
    """
    from repro.cli import main
    from repro.experiments import profiles
    from repro.obs import metrics as obs_metrics

    if not execution.reported:
        profiles._build_profile.cache_clear()
        execution.reported = True
    with execution.recording():
        status = main(argv)
    return status, obs_metrics.registry().counter_values()


@pytest.fixture(scope="session")
def hybrid_report(tmp_path_factory, execution):
    """Default ``report`` (hybrid engine): status, markdown, counters."""
    target = tmp_path_factory.mktemp("report") / "report.md"
    status, counters = _record_report(execution,
                                      ["report", "-o", str(target)])
    return status, target.read_text(), counters


@pytest.fixture(scope="session")
def hybrid_report_jobs2(tmp_path_factory, execution):
    """The default ``report`` at ``--jobs 2``, with every batch of more
    than one unit on forked workers whatever the host's core count."""
    from repro.core import executor

    target = tmp_path_factory.mktemp("report-jobs2") / "report.md"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(executor, "usable_cpu_count", lambda: 2)
        patch.setattr(executor, "MIN_PARALLEL_SECONDS", float("-inf"))
        status, counters = _record_report(
            execution, ["--jobs", "2", "report", "-o", str(target)])
    return status, target.read_text(), counters


@pytest.fixture(scope="session")
def sim_report(tmp_path_factory, execution):
    """``--engine sim --jobs 1 report``: status, bytes, counters."""
    from repro.core import hybrid

    target = tmp_path_factory.mktemp("sim-report") / "report.md"
    # main() switches the process-wide engine; restore it for the tests
    # that run after this one.
    previous = hybrid.configure_engine(None)
    try:
        status, counters = _record_report(
            execution, ["--engine", "sim", "--jobs", "1", "report",
                        "-o", str(target)])
    finally:
        hybrid.configure_engine(previous)
    return status, target.read_bytes(), counters
