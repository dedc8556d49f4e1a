"""Span tracing for the benchmark's traced run, recorded from outside the program.

The program under test has no spans of its own.  This module wraps the public
entry point of each layer at every name its callers look up (module globals
and class attributes), records one span per call in memory, and writes the
spans out when the process ends.  Forked workers record their own spans and
write them to their own file when they exit.

Run as a script it is the traced entry point of ``python -m repro``::

    python3 perfbench/spans.py --out DIR -- report -o out.md

which writes ``DIR/spans-<pid>.json`` (one file per process) and exits with
the CLI's exit code.
"""

from __future__ import annotations

import functools
import json
import multiprocessing.util
import os
import sys
import time
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

# (span name, defining module, attributes wrapped there).  A dotted attribute
# is a method wrapped on its class; ``NAME[]`` wraps every value of the dict
# ``NAME``.  The span name is the layer the per-layer metrics are named after.
TARGETS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("profiles", "repro.experiments.profiles", ("get_profile",)),
    # The builders run only on a miss of get_profile's in-process memo.
    ("profiles.build", "repro.experiments.profiles", ("_BUILDERS[]",)),
    ("measurement", "repro.experiments.measurement", (
        "run_fixed_rate", "run_ladder", "run_validated_ladder",
        "measure_operating_point", "measure_operating_point_cached",
        "compute_operating_point", "estimate_capacity_rps",
        "sweep_operating_rate", "component_load")),
    ("analytic.predict", "repro.experiments.measurement",
     ("predict_fixed_rate",)),
    ("analytic", "repro.core.analytic", (
        "erlang_c", "mmc_wait_mean", "mg1_wait_mean", "mg1_sojourn_p99",
        "sharded_capacity", "batch_capacity", "slo_capacity")),
    ("queueing", "repro.core.queueing", (
        "lindley_waits", "bounded_waits", "simulate_gg1", "simulate_sharded",
        "lindley_waits_stacked", "simulate_gg1_ladder",
        "simulate_sharded_ladder", "simulate_batch_server",
        "simulate_batch_server_ladder", "attribute_outcome",
        "outcome_to_metrics")),
    ("queueing.reference", "repro.core.queueing", (
        "bounded_waits_reference", "lindley_waits_reference",
        "simulate_batch_server_reference")),
    ("engine", "repro.core.engine", ("Simulator.run",)),
    ("cluster", "repro.cluster.scenario", ("run_scenario",)),
    ("balancer", "repro.offload.loadbalancer", (
        "simulate_failover", "simulate_balancer", "simulate_fleet")),
    ("executor", "repro.core.executor", (
        "ParallelExecutor.map", "ParallelExecutor.map_keyed",
        "ParallelExecutor.map_supervised", "map_cached")),
    ("executor.unit", "repro.core.executor", ("WorkUnit.run",)),
    ("cache.get", "repro.core.cache", ("ResultCache.get",)),
    ("cache.put", "repro.core.cache", ("ResultCache.put",)),
    ("report", "repro.analysis.report", ("render_report",)),
)


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    pid: int


class SpanRecorder:
    """Keeps finished spans and the stack of open ones, in memory."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 0
        self.pid = os.getpid()

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = recorder._next_id
            recorder._next_id += 1
            parent = recorder._stack[-1] if recorder._stack else None
            recorder._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                recorder._stack.pop()
                recorder.spans.append(
                    Span(span_id, name, start, end, parent, recorder.pid))

        return traced

    def add(self, name: str, start: float, end: float) -> None:
        """Record a root span timed by the caller."""
        self.spans.append(Span(self._next_id, name, start, end, None, self.pid))
        self._next_id += 1

    def after_fork(self) -> None:
        """In a forked worker: start over with no spans and no open ones."""
        self.spans = []
        self._stack = []
        self.pid = os.getpid()

    def write(self, out_dir: str) -> str:
        path = os.path.join(out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as handle:
            json.dump([span._asdict() for span in self.spans], handle)
        return path


class Patcher:
    """Replaces attributes and puts every one back on :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def set_item(self, mapping: dict, key: object, value: object) -> None:
        self._saved.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __len__(self) -> int:
        return len(self._saved)


def install(recorder: SpanRecorder, modules: Dict[str, object],
            targets: Iterable[Tuple[str, str, Tuple[str, ...]]] = TARGETS
            ) -> Patcher:
    """Wrap every target at each name that binds it.

    ``modules`` maps module names to loaded modules (``sys.modules``).  A
    function is replaced in its defining module and in every other module
    of the same package that imported it by name; a method is replaced on
    its class, which every subclass and instance looks up.
    """
    patcher = Patcher()
    for name, module_name, attrs in targets:
        module = modules[module_name]
        package = module_name.split(".")[0] + "."
        for attr in attrs:
            if attr.endswith("[]"):
                mapping = getattr(module, attr[:-2])
                for key, fn in list(mapping.items()):
                    patcher.set_item(mapping, key, recorder.wrap(name, fn))
                continue
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                patcher.set(cls, method, recorder.wrap(name, cls.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapped = recorder.wrap(name, original)
            for other_name, other in list(modules.items()):
                if other is None or not (other_name + ".").startswith(package):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        patcher.set(other, key, wrapped)
    return patcher


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Seconds each span name spent in itself, summed over its spans.

    A span's self time is its duration minus the part of its interval that
    its child spans cover (overlapping children are counted once).
    """
    spans = list(spans)
    children: Dict[Tuple[int, int], List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.pid, span.parent), []).append(span)
    totals: Dict[str, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for child in sorted(children.get((span.pid, span.id), ()),
                            key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        own = span.end - span.start - covered
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def load_spans(out_dir: str) -> List[Span]:
    spans: List[Span] = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(out_dir, entry)) as handle:
                spans.extend(Span(**raw) for raw in json.load(handle))
    return spans


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[0] != "--out" or argv[2] != "--":
        print("usage: spans.py --out DIR -- <repro arguments>", file=sys.stderr)
        return 2
    out_dir, cli_args = argv[1], argv[3:]
    recorder = SpanRecorder()
    start = time.perf_counter()
    import repro.cli
    from repro.experiments import registry

    registry.load_all()
    recorder.add("import", start, time.perf_counter())
    patcher = install(recorder, sys.modules)

    def write_worker_spans(rec: SpanRecorder) -> None:
        rec.after_fork()
        multiprocessing.util.Finalize(None, rec.write, args=(out_dir,),
                                      exitpriority=100)

    multiprocessing.util.register_after_fork(recorder, write_worker_spans)
    try:
        return repro.cli.main(cli_args)
    finally:
        patcher.restore()
        recorder.write(out_dir)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, "src"))
    sys.exit(main(sys.argv[1:]))
