"""Cold-process checks: what a fresh ``python -m repro`` imports and runs.

A warm pytest process has already imported most of the program, so a
verb that forgot an import still passes in-process.  Every test here
starts a new interpreter instead.  The verb runs are the recorded ones
of ``tests/conftest.py``, which the execution gate in
``tests/test_module_graph.py`` reads too.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.export import ARTIFACT_SCHEMA, validate_artifact
from repro.experiments import registry
from repro.runfarm.manifest import RunManifest
from tests.conftest import verb_run

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
EXAMPLES = os.path.join(ROOT, "examples")

# Everything building the parser may load: the registry table, and the
# three leaf modules the flags' defaults and the footer need.
PARSER_MODULES = {
    "repro", "repro.cli",
    "repro.core", "repro.core.hybrid", "repro.core.trace",
    "repro.experiments", "repro.experiments.registry",
    "repro.obs", "repro.obs.metrics",
}

# Prints the loaded modules as JSON on stderr's last line, after running
# the code in argv[1].
_PROBE = """
import json, sys
try:
    exec(sys.argv[1])
finally:
    sys.stderr.write("\\n" + json.dumps(sorted(sys.modules)) + "\\n")
"""


def _fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", _PROBE, code],
                          capture_output=True, text=True, env=env, cwd=ROOT,
                          timeout=300)


def _loaded(proc: subprocess.CompletedProcess) -> set:
    return set(json.loads(proc.stderr.strip().splitlines()[-1]))


def test_parser_imports_only_the_registry_and_leaf_modules():
    proc = _fresh(code="import repro.cli; repro.cli.build_parser()")
    assert proc.returncode == 0, proc.stderr
    loaded = _loaded(proc)
    assert "numpy" not in loaded
    assert {m for m in loaded if m.startswith("repro")} == PARSER_MODULES


def test_names_import_no_experiment_module():
    proc = _fresh(code="from repro.experiments import registry\n"
                       "print(json.dumps(registry.names()))")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [name for name, _module, _title
                                       in registry.TABLE]
    defining = {module for _name, module, _title in registry.TABLE}
    assert not defining & _loaded(proc)


def test_fig7_smoke_loads_only_what_fig7_runs():
    proc = _fresh(code="import runpy\n"
                       "sys.argv = ['repro', 'fig7', '--smoke']\n"
                       "try:\n"
                       "    runpy.run_module('repro', run_name='__main__')\n"
                       "except SystemExit as exit:\n"
                       "    assert not exit.code, exit.code\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    loaded = _loaded(proc)
    assert "repro.experiments.fig7" in loaded
    unwanted = sorted(
        m for m in loaded
        if m in ("repro.experiments.measurement",
                 "repro.experiments.profiles")
        or m.startswith(("repro.cluster", "repro.offload")))
    assert not unwanted


def test_status_reads_the_manifest_without_the_simulator(tmp_path):
    run_dir = str(tmp_path / "run")
    manifest = RunManifest(run_dir)
    manifest.begin_generation(verb="fig4", seed=1, samples=20, requests=600,
                              tier="smoke", jobs=2, code_version="test")
    manifest.record_unit("k1", "fig4:udp:64:host", "done", attempt=1,
                         elapsed_s=0.5, artifact="a1", wall_s=0.5, cpu_s=0.4)
    manifest.record_unit("k2", "fig4:udp:64:snic-cpu", "running", attempt=1)
    proc = _fresh(code="import runpy\n"
                       f"sys.argv = ['repro', 'status', {run_dir!r}, '--json']\n"
                       "try:\n"
                       "    runpy.run_module('repro', run_name='__main__')\n"
                       "except SystemExit as exit:\n"
                       "    assert not exit.code, exit.code\n")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["counts"] == {"done": 1, "running": 1}
    assert doc["incomplete"] == 1
    unwanted = sorted(
        m for m in _loaded(proc)
        if m == "numpy" or m.startswith(("numpy.", "repro.faults"))
        or m in ("repro.core.executor", "repro.core.engine",
                 "repro.runfarm.supervisor"))
    assert not unwanted


@pytest.mark.parametrize("name", [name for name, _m, _t in registry.TABLE])
def test_verb_runs_in_a_fresh_process(name, fresh_runs):
    proc, path = verb_run(fresh_runs, name)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
    doc = json.loads(path.read_text())
    errors = validate_artifact(doc, ARTIFACT_SCHEMA)
    errors += validate_artifact(doc["result"], registry.get(name).schema,
                                "$.result")
    assert not errors


@pytest.mark.parametrize("filename", sorted(
    f for f in os.listdir(EXAMPLES) if f.endswith(".py")))
def test_example_imports(filename):
    # Imported as a module, not run as __main__: this resolves every name
    # the example imports without running its study.
    spec = importlib.util.spec_from_file_location(
        f"example_{filename[:-3]}", os.path.join(EXAMPLES, filename))
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
