"""CLI run-farm flags: supervised runs, resume byte-identity, chaos
injection, quarantine exit codes, and driver crash-recovery.

The acceptance criterion from the issue lives here: a run killed with
``kill -9`` mid-flight, resumed with ``--resume``, completes without
re-running finished units and produces byte-identical artifacts.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import EXIT_PARTIAL, build_parser, main
from repro.obs import metrics
from repro.core.cache import ResultCache, configure
from repro.runfarm import manifest as mf
from repro.runfarm.manifest import RunManifest

# Cheap fidelity shared by every CLI invocation here.
FIDELITY = ["--samples", "20", "--requests", "600"]


@pytest.fixture(autouse=True)
def _fresh_state():
    configure(ResultCache())
    metrics.reset()
    yield
    configure(ResultCache())
    metrics.reset()


class TestParserFlags:
    def test_runfarm_flags_before_or_after_verb(self):
        before = build_parser().parse_args(
            ["--run-dir", "/tmp/r", "--unit-timeout", "5",
             "--max-unit-attempts", "2", "fig4"])
        assert before.run_dir == "/tmp/r"
        assert before.unit_timeout == 5.0
        assert before.max_unit_attempts == 2
        after = build_parser().parse_args(
            ["fig4", "--resume", "/tmp/r", "--unit-timeout", "5"])
        assert after.resume == "/tmp/r"
        assert after.unit_timeout == 5.0

    def test_defaults_leave_supervision_off(self):
        args = build_parser().parse_args(["fig4"])
        assert args.run_dir is None
        assert args.resume is None
        assert args.unit_timeout is None
        assert args.max_unit_attempts is None

    def test_nonpositive_timeout_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--unit-timeout", "0", "fig7"])
        assert "--unit-timeout" in capsys.readouterr().err

    def test_attempts_below_one_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--max-unit-attempts", "0", "fig7"])
        assert "--max-unit-attempts" in capsys.readouterr().err

    def test_run_dir_and_resume_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["--run-dir", "/tmp/a", "--resume", "/tmp/b", "fig7"])
        assert "mutually exclusive" in capsys.readouterr().err

    def test_resume_requires_existing_manifest(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["--resume", str(tmp_path / "nope"), "fig7"])
        assert "no manifest" in capsys.readouterr().err


class TestSupervisedRun:
    def test_run_dir_journals_and_resume_is_byte_identical(
            self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        argv = FIDELITY + ["--jobs", "2", "fig4", "--smoke"]

        assert main(argv + ["--run-dir", str(run_dir)]) == 0
        first = capsys.readouterr()
        assert "runfarm" in first.err
        state = RunManifest.load(str(run_dir))
        assert state.units and state.incomplete() == []
        assert (run_dir / "artifacts").is_dir()

        assert main(argv + ["--resume", str(run_dir)]) == 0
        second = capsys.readouterr()
        assert second.out == first.out  # byte-identical artifact
        assert "resuming" in second.err
        assert "probes: 0 simulated" in second.err  # nothing re-simulated
        assert RunManifest.load(str(run_dir)).generations == 2

    def test_supervised_output_matches_unsupervised(self, tmp_path,
                                                    capsys):
        argv = FIDELITY + ["--jobs", "2", "fig4", "--smoke"]
        assert main(argv) == 0
        baseline = capsys.readouterr().out
        configure(ResultCache())  # drop the in-memory cache between runs
        assert main(argv + ["--run-dir", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().out == baseline

    def test_resume_rejects_wrong_verb(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(FIDELITY + ["fig7", "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(FIDELITY + ["fig4", "--resume", str(run_dir)])
        assert "recorded by 'fig7'" in capsys.readouterr().err

    def test_resume_adopts_original_fidelity(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(["--samples", "20", "--requests", "600", "--seed",
                     "11", "fig7", "--run-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        configure(ResultCache())
        # Contradictory flags on the resume line are overridden by the
        # manifest header, so the output still matches.
        assert main(["--samples", "99", "--requests", "9999", "--seed",
                     "1", "fig7", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == first


class TestTopologyHeader:
    def test_cluster_run_records_fabric_topology(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(FIDELITY + ["cluster", "--smoke",
                                "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        header = RunManifest.load(str(run_dir)).header
        assert header["topology"] == "leafspine:r2xn4:s2:host+bf2:ecn"

    def test_single_node_verbs_record_single_topology(self, tmp_path,
                                                      capsys):
        run_dir = tmp_path / "run"
        assert main(FIDELITY + ["fig7", "--run-dir", str(run_dir)]) == 0
        capsys.readouterr()
        header = RunManifest.load(str(run_dir)).header
        assert header["topology"] == "single:host+bf2"

    def test_resume_rejects_topology_mismatch(self, tmp_path, capsys):
        from repro.core.cache import CODE_VERSION

        run_dir = tmp_path / "run"
        RunManifest(str(run_dir)).begin_generation(
            verb="cluster", seed=2023, samples=20, requests=600,
            tier="smoke", jobs=1, code_version=CODE_VERSION,
            topology="leafspine:r9xn9:s9:host+bf2:ecn")
        with pytest.raises(SystemExit):
            main(FIDELITY + ["cluster", "--smoke",
                             "--resume", str(run_dir)])
        err = capsys.readouterr().err
        assert "leafspine:r9xn9:s9:host+bf2:ecn" in err
        assert "leafspine:r2xn4:s2:host+bf2:ecn" in err

    def test_headerless_manifest_still_resumes(self, tmp_path, capsys):
        # Manifests written before the topology field existed carry no
        # topology; resume must not invent a mismatch.
        run_dir = tmp_path / "run"
        assert main(FIDELITY + ["fig7", "--run-dir", str(run_dir)]) == 0
        first = capsys.readouterr().out
        configure(ResultCache())
        # Strip the topology field to simulate an old-format manifest.
        manifest_path = run_dir / "manifest.jsonl"
        records = [json.loads(line) for line in
                   manifest_path.read_text().splitlines()]
        for record in records:
            record.pop("topology", None)
        manifest_path.write_text(
            "".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        assert main(FIDELITY + ["fig7", "--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == first


class TestChaosInjection:
    def test_worker_kills_are_requeued_with_identical_output(
            self, tmp_path, capsys, monkeypatch):
        argv = FIDELITY + ["--jobs", "2", "sensitivity", "--smoke"]
        assert main(argv) == 0
        baseline = capsys.readouterr().out
        configure(ResultCache())
        monkeypatch.setenv("REPRO_CHAOS_KILL_NTH", "2")
        assert main(argv + ["--run-dir", str(tmp_path / "run")]) == 0
        chaos = capsys.readouterr()
        assert chaos.out == baseline
        assert metrics.counter(metrics.RUNFARM_WORKER_LOST).value > 0


class TestQuarantineDegradation:
    # Deterministic poison pills: chaos kills every worker on its first
    # attempt, and a one-attempt budget quarantines every unit — no
    # dependence on real unit runtimes.
    def test_partial_spec_exits_3_with_notice_and_artifact(
            self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CHAOS_KILL_NTH", "1")
        artifact = tmp_path / "mb.json"
        code = main(FIDELITY + [
            "--jobs", "2", "microburst", "--smoke",
            "--run-dir", str(tmp_path / "run"),
            "--max-unit-attempts", "1",
            "--json", str(artifact),
        ])
        assert code == EXIT_PARTIAL
        out = capsys.readouterr().out
        assert "PARTIAL RESULTS" in out
        assert "--resume" in out
        doc = json.loads(artifact.read_text())
        assert doc["partial"] is True
        assert doc["result"] is None
        assert doc["quarantined"]
        state = RunManifest.load(str(tmp_path / "run"))
        assert state.quarantined()

    def test_quarantined_run_resumes_clean(self, tmp_path, capsys,
                                           monkeypatch):
        run_dir = tmp_path / "run"
        argv = FIDELITY + ["--jobs", "2", "microburst", "--smoke"]
        assert main(argv) == 0
        baseline = capsys.readouterr().out
        configure(ResultCache())
        monkeypatch.setenv("REPRO_CHAOS_KILL_NTH", "1")
        assert main(argv + ["--run-dir", str(run_dir),
                            "--max-unit-attempts", "1"]) == EXIT_PARTIAL
        capsys.readouterr()
        configure(ResultCache())
        monkeypatch.delenv("REPRO_CHAOS_KILL_NTH")
        # Resume with the fault gone: completes, and the output matches
        # an uninterrupted run byte for byte.
        assert main(argv + ["--resume", str(run_dir)]) == 0
        assert capsys.readouterr().out == baseline


class TestDriverCrashRecovery:
    def test_kill9_mid_run_then_resume_byte_identical(self, tmp_path):
        """Acceptance criterion: kill -9 the driver, resume, same bytes."""
        run_dir = tmp_path / "run"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [p for p in (env.get("PYTHONPATH"),) if p]
            + [os.path.join(os.path.dirname(__file__), "..", "..", "src")]
        )
        argv = [sys.executable, "-m", "repro", "--jobs", "2",
                "--samples", "20", "--requests", "600", "fig4",
                "--smoke"]

        victim = subprocess.Popen(
            argv + ["--run-dir", str(run_dir)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        # Wait until at least one unit has completed but the run has
        # not finished, then SIGKILL the whole driver.
        manifest_path = run_dir / "manifest.jsonl"
        deadline = time.time() + 60
        progressed = False
        while time.time() < deadline and victim.poll() is None:
            if manifest_path.exists():
                state = RunManifest.load(str(manifest_path))
                if state.done_keys():
                    progressed = True
                    break
            time.sleep(0.02)
        if victim.poll() is not None:
            pytest.skip("run finished before it could be killed")
        assert progressed, "driver never completed a unit within 60s"
        victim.kill()
        victim.wait(timeout=30)

        interrupted = RunManifest.load(str(manifest_path))
        assert interrupted.done_keys()  # partial progress survived

        resumed = subprocess.run(
            argv + ["--resume", str(run_dir)], env=env,
            capture_output=True, timeout=300)
        assert resumed.returncode == 0, resumed.stderr.decode()
        baseline = subprocess.run(
            argv, env=env, capture_output=True, timeout=300)
        assert baseline.returncode == 0, baseline.stderr.decode()
        # Byte-identical artifact despite the kill -9 mid-run.
        assert resumed.stdout == baseline.stdout

        final = RunManifest.load(str(manifest_path))
        assert final.incomplete() == []
        assert final.generations == 2
        # Finished units were not re-run: every key completed before the
        # kill is recorded as cached (served from the artifact store) in
        # the resume generation.
        replayed = {}
        for record in _generation_records(str(manifest_path), 2):
            replayed[record["key"]] = record["status"]
        for key in interrupted.done_keys():
            assert replayed.get(key) == mf.CACHED


def _generation_records(path, generation):
    """Unit records appended after the ``generation``-th run header."""
    from repro.runfarm.manifest import iter_records

    current = 0
    for record in iter_records(path):
        if record.get("type") == "run":
            current = record.get("generation", 0)
        elif record.get("type") == "unit" and current == generation:
            yield record
