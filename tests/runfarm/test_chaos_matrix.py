"""Every verb survives injected worker kills, then resumes to completion.

Each registry verb runs supervised at ``--jobs 2`` with
``REPRO_CHAOS_KILL_NTH=3`` (a worker SIGKILLs itself on the first attempt
of every unit whose name hashes to a multiple of 3) and a 1 s unit
deadline.  The run must end clean (0) or partial (3) with a schema-valid
``--json`` envelope, and a complete artifact must also satisfy the
verb's own schema.  Every unit chaos selected must lose its worker and
be requeued: a kill costs an attempt, never the unit.  Only the deadline
may leave a unit quarantined.  Then a resume without chaos must finish
every unit and exit clean with a schema-valid artifact.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.analysis.export import ARTIFACT_SCHEMA, validate_artifact
from repro.core.executor import CHAOS_KILL_ENV
from repro.experiments import registry
from repro.runfarm import manifest as mf
from repro.runfarm.manifest import RunManifest
from tests.conftest import SRC

EXIT_PARTIAL = 3
CHAOS_NTH = 3
# A smoke verb takes seconds; a hung run fails instead of stalling CI.
_TIMEOUT_S = 300


def _repro(args, cwd, chaos):
    env = {k: v for k, v in os.environ.items() if k != CHAOS_KILL_ENV}
    env["PYTHONPATH"] = str(SRC)
    if chaos:
        env[CHAOS_KILL_ENV] = str(CHAOS_NTH)
    return subprocess.run([sys.executable, "-m", "repro", *args], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=_TIMEOUT_S)


def _chaos_selects(unit_name):
    digest = hashlib.sha256(unit_name.encode("utf-8")).hexdigest()
    return int(digest, 16) % CHAOS_NTH == 0


def _schema_errors(name, path, complete):
    with open(path) as handle:
        doc = json.load(handle)
    errors = validate_artifact(doc, ARTIFACT_SCHEMA)
    if complete or not doc["partial"]:
        errors += validate_artifact(doc["result"], registry.get(name).schema,
                                    "$.result")
    return errors


@pytest.mark.parametrize("name", registry.names())
def test_chaos_run_then_resume(name, tmp_path):
    artifact = tmp_path / f"{name}.json"
    run_dir = tmp_path / "run"
    chaos = _repro(["--jobs", "2", name, "--smoke", "--run-dir", str(run_dir),
                    "--unit-timeout", "1", "--json", str(artifact)],
                   tmp_path, chaos=True)
    assert chaos.returncode in (0, EXIT_PARTIAL), chaos.stderr[-2000:]
    assert not _schema_errors(name, artifact, complete=False)

    # Chaos killed the first attempt of each unit it selected, and every
    # kill was requeued: no unit is quarantined straight after one.
    history = {}
    for record in mf.iter_records(str(run_dir)):
        if record.get("type") == "unit":
            history.setdefault(record["key"], (record["unit"], []))[1].append(
                record["status"])
    for unit, statuses in history.values():
        if statuses[0] == mf.RUNNING and _chaos_selects(unit):
            assert statuses[1:3] == [mf.WORKER_LOST, mf.RUNNING], (
                unit, statuses)
        assert (mf.WORKER_LOST, mf.QUARANTINED) not in set(
            zip(statuses, statuses[1:])), (unit, statuses)

    resume = _repro(["--jobs", "2", name, "--smoke", "--resume", str(run_dir),
                     "--json", str(artifact)], tmp_path, chaos=False)
    assert resume.returncode == 0, resume.stderr[-2000:]
    state = RunManifest.load(str(run_dir))
    assert not state.incomplete(), state.counts()
    assert not _schema_errors(name, artifact, complete=True)
