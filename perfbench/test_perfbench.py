"""Tests for the benchmark runner.  Run from the root of a checkout::

    python3 -m pytest perfbench
"""

import json
import math
import os
import re
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
from spans import Span  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_benchmark():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- self time ---------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    tree = [
        Span(0, "executor", 0.0, 10.0, None, 1),
        Span(1, "measurement", 1.0, 7.0, 0, 1),
        Span(2, "queueing", 2.0, 3.0, 1, 1),
        Span(3, "queueing.reference", 2.5, 2.75, 2, 1),
        Span(4, "queueing", 4.0, 6.0, 1, 1),
        Span(5, "profiles", 8.0, 9.5, 0, 1),
    ]
    own = spans.self_times(tree)
    assert own["executor"] == pytest.approx(10.0 - 6.0 - 1.5)
    assert own["measurement"] == pytest.approx(6.0 - 1.0 - 2.0)
    assert own["queueing"] == pytest.approx(0.75 + 2.0)
    assert own["queueing.reference"] == pytest.approx(0.25)
    assert own["profiles"] == pytest.approx(1.5)
    # Self times partition the root span.
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    tree = [
        Span(0, "parent", 0.0, 4.0, None, 1),
        Span(1, "child", 1.0, 3.0, 0, 1),
        Span(2, "child", 2.0, 5.0, 0, 1),  # overlaps its sibling and the end
    ]
    assert spans.self_times(tree)["parent"] == pytest.approx(1.0)


def test_self_time_keeps_processes_apart():
    # Same span ids in two processes (a forked worker continues the ids).
    tree = [
        Span(0, "executor", 0.0, 4.0, None, 1),
        Span(1, "profiles", 1.0, 2.0, 0, 1),
        Span(1, "profiles", 0.0, 3.0, None, 2),
        Span(2, "queueing", 0.5, 1.0, 1, 2),
    ]
    own = spans.self_times(tree)
    assert own["executor"] == pytest.approx(3.0)
    assert own["profiles"] == pytest.approx(1.0 + 2.5)
    assert own["queueing"] == pytest.approx(0.5)


# -- wrappers ----------------------------------------------------------------

def fake_package():
    core = types.ModuleType("pkg.core")

    def kernel(x):
        return x + 1

    kernel.__module__ = "pkg.core"

    class Engine:
        def run(self, n):
            return core.kernel(n) * 2

    core.kernel = kernel
    core.Engine = Engine
    core.BUILDERS = {"a": lambda: "A", "b": lambda: "B"}
    user = types.ModuleType("pkg.user")
    user.kernel = kernel  # ``from pkg.core import kernel``
    user.alias = kernel
    other = types.ModuleType("elsewhere")
    other.kernel = kernel  # outside the package: left alone
    return {"pkg.core": core, "pkg.user": user, "elsewhere": other}


FAKE_TARGETS = (
    ("queueing", "pkg.core", ("kernel",)),
    ("engine", "pkg.core", ("Engine.run",)),
    ("profiles.build", "pkg.core", ("BUILDERS[]",)),
)


def snapshot(modules):
    state = {}
    for name, module in modules.items():
        for key, value in vars(module).items():
            state[(name, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    state[(name, key, attr)] = member
            if isinstance(value, dict):
                for item, member in value.items():
                    state[(name, key, item)] = member
    return state


def test_wrappers_record_spans_and_restore_every_attribute():
    modules = fake_package()
    before = snapshot(modules)
    recorder = spans.SpanRecorder()
    patcher = spans.install(recorder, modules, FAKE_TARGETS)
    core, user = modules["pkg.core"], modules["pkg.user"]
    assert user.kernel is not before[("pkg.user", "kernel")]
    assert user.alias is user.kernel
    assert modules["elsewhere"].kernel is before[("pkg.core", "kernel")]
    assert core.Engine().run(1) == 4
    assert user.kernel(1) == 2
    assert core.BUILDERS["a"]() == "A"
    names = sorted(span.name for span in recorder.spans)
    assert names == ["engine", "profiles.build", "queueing", "queueing"]
    engine = next(s for s in recorder.spans if s.name == "engine")
    nested = [s for s in recorder.spans if s.parent == engine.id]
    assert [s.name for s in nested] == ["queueing"]
    patcher.restore()
    after = snapshot(modules)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert len(patcher) == 0


def test_real_targets_restore_every_attribute():
    sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
    try:
        import repro.cli  # noqa: F401
        from repro.experiments import registry
    except ImportError as exc:  # the program is not in this checkout
        pytest.skip(str(exc))
    registry.load_all()
    modules = {name: module for name, module in sys.modules.items()
               if name.startswith("repro.") and module is not None}
    before = snapshot(modules)
    patcher = spans.install(spans.SpanRecorder(), modules)
    patched = snapshot(modules)
    changed = [key for key in before if patched[key] is not before[key]]
    assert len(patcher) > len(spans.TARGETS)
    # Only bindings of the targets move, each to a wrapper of what it was.
    assert changed and all(patched[key].__wrapped__ is before[key]
                           for key in changed)
    patcher.restore()
    after = snapshot(modules)
    assert all(after[key] is before[key] for key in before)


# -- metric names ------------------------------------------------------------

def test_metric_names_are_well_formed_and_match_the_benchmark():
    bench = load_benchmark()
    declared_e2e = [m["name"] for m in bench["end_to_end"]]
    declared_layer = [m["name"] for m in bench["per_layer"]]
    produced = run.layer_metrics([Span(0, "engine", 0.0, 1.0, None, 1)],
                                 {"sim.events_fired": 10}, 0.1)
    assert [name for name, _ in run.END_TO_END] == declared_e2e
    assert list(produced) == declared_layer
    for name in declared_e2e + declared_layer + list(run.WORKLOADS):
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {name: unit for name, (_, unit) in produced.items()} == units


# -- speed -------------------------------------------------------------------

def test_reference_seconds_rescales_by_the_measured_speed():
    # 3000 chunks in 1.5 CPU s is twice the reference speed.
    assert speed.reference_seconds(4.0, (100, 0.5), (3100, 2.0)) == \
        pytest.approx(8.0)
    assert math.isnan(speed.reference_seconds(4.0, (100, 0.5), (100, 0.5)))


def test_speed_probe_runs_and_stops_its_process():
    with speed.SpeedProbe(None) as probe:
        first = probe.read()
        time.sleep(0.2)
        second = probe.read()
    assert second[0] > first[0] and second[1] > first[1]
    assert not probe._proc.is_alive()


# -- output checks -----------------------------------------------------------

GOLDEN = b"# Experiments\n\n[HOLDS] O1: a\n"
HOLDS = "".join(f"[HOLDS] O{n}: x\n" for n in range(1, 6)).encode()


def invocation(output, counters=None, returncode=0):
    return run.Invocation(1.0, 1.0, 1.0, 100.0, returncode, output,
                          dict(counters or {"probes": 886}), "")


@pytest.mark.parametrize("position", [0, 5, len(GOLDEN) - 1])
def test_one_changed_byte_fails_the_golden_check(position):
    cold = run.WORKLOADS["report-cold"]
    assert run.check_output(cold, invocation(GOLDEN), GOLDEN, None) == []
    broken = bytearray(GOLDEN)
    broken[position] ^= 0x01
    assert run.check_output(cold, invocation(bytes(broken)), GOLDEN, None)


def test_sim_output_must_hold_and_repeat():
    sim = run.WORKLOADS["report-sim"]
    first = invocation(HOLDS)
    assert run.check_output(sim, first, GOLDEN, None) == []
    assert run.check_output(sim, invocation(HOLDS), GOLDEN, first) == []
    fails = HOLDS.replace(b"[HOLDS] O3", b"[FAILS] O3")
    assert run.check_output(sim, invocation(fails), GOLDEN, None)
    changed = HOLDS + b"!"
    assert run.check_output(sim, invocation(changed), GOLDEN, first)


def test_failed_exit_and_count_drift_are_flagged():
    cold = run.WORKLOADS["report-cold"]
    first = invocation(GOLDEN, {"probes": 886, "cache_hits": 14})
    assert run.check_output(cold, invocation(GOLDEN, returncode=1), GOLDEN,
                            first)
    drift = invocation(GOLDEN, {"probes": 886, "cache_hits": 15})
    assert run.check_output(cold, drift, GOLDEN, first) == [
        "count drift: cache_hits 14 -> 15"]
    missing = invocation(GOLDEN, {"probes": 886})
    assert run.check_output(cold, missing, GOLDEN, first) == [
        "count drift: cache_hits 14 -> 0"]


def test_ledger_counts_failures_against_attempts():
    ledger = run.Ledger(run.WORKLOADS["report-cold"], GOLDEN)
    ledger.check(invocation(GOLDEN), "ok")
    ledger.check(invocation(GOLDEN + b"x"), "bad")
    assert (ledger.attempted, ledger.failed) == (2, 1)
