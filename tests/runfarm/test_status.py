"""`repro status`: fleet progress reconstructed from manifest + beats.

The acceptance criterion from the issue lives here: the unit counts in
``repro status <run-dir> --json`` match the manifest replay
(:meth:`RunManifest.load(...).counts()`) exactly.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.cli import main
from repro.obs import metrics
from repro.core.cache import ResultCache, configure
from repro.runfarm import manifest as mf
from repro.runfarm.health import write_beat
from repro.runfarm.manifest import RunManifest
from repro.runfarm.status import collect, render, to_json


@pytest.fixture(autouse=True)
def _fresh_state():
    configure(ResultCache())
    metrics.reset()
    yield
    configure(ResultCache())
    metrics.reset()


def _seed_manifest(run_dir: str) -> RunManifest:
    """A synthetic run: 2 done, 1 cached, 1 retried-then-done, 1 running,
    1 quarantined."""
    manifest = RunManifest(run_dir)
    manifest.begin_generation(verb="fig4", seed=7, samples=20, requests=600,
                              tier="smoke", jobs=2, code_version="t")
    manifest.record_unit("k1", "fig4:a", mf.RUNNING, attempt=1)
    manifest.record_unit("k1", "fig4:a", mf.DONE, attempt=1,
                         wall_s=0.5, cpu_s=0.4, events_per_s=1000.0)
    manifest.record_unit("k2", "fig4:b", mf.RUNNING, attempt=1)
    manifest.record_unit("k2", "fig4:b", mf.DONE, attempt=1, wall_s=2.0)
    manifest.record_unit("k3", "fig4:c", mf.CACHED)
    manifest.record_unit("k4", "fig4:d", mf.RUNNING, attempt=1)
    manifest.record_unit("k4", "fig4:d", mf.TIMEOUT, attempt=1,
                         elapsed_s=1.0, error="deadline")
    manifest.record_unit("k4", "fig4:d", mf.RUNNING, attempt=2)
    manifest.record_unit("k4", "fig4:d", mf.DONE, attempt=2, wall_s=0.9)
    manifest.record_unit("k5", "fig4:e", mf.RUNNING, attempt=1)
    manifest.record_unit("k6", "fig4:f", mf.QUARANTINED, attempt=3,
                         error="attempts exhausted: boom")
    return manifest


class TestCollect:
    def test_counts_match_manifest_replay_exactly(self, tmp_path):
        manifest = _seed_manifest(str(tmp_path))
        status = collect(str(tmp_path))
        assert status.counts() == RunManifest.load(manifest.path).counts()
        assert status.counts() == {"done": 3, "cached": 1, "running": 1,
                                   "quarantined": 1}
        assert status.total == 6
        assert status.complete == 4
        assert status.incomplete == 2

    def test_attempt_histories_replayed(self, tmp_path):
        _seed_manifest(str(tmp_path))
        status = collect(str(tmp_path))
        retried = status.retried_units()
        assert [h.unit for h in retried] == ["fig4:d"]
        assert retried[0].attempts == [
            (1, mf.RUNNING), (1, mf.TIMEOUT), (2, mf.RUNNING), (2, mf.DONE)]

    def test_eta_from_wall_time_ewma_and_jobs(self, tmp_path):
        _seed_manifest(str(tmp_path))
        status = collect(str(tmp_path))
        assert status.ewma_unit_s is not None and status.ewma_unit_s > 0
        # 2 incomplete units over jobs=2 workers.
        assert status.eta_s() == pytest.approx(
            2 * status.ewma_unit_s / 2)

    def test_eta_is_none_when_complete(self, tmp_path):
        manifest = RunManifest(str(tmp_path))
        manifest.begin_generation(verb="fig7", seed=1, samples=1, requests=1,
                                  tier="smoke", jobs=1, code_version="t")
        manifest.record_unit("k1", "u1", mf.DONE, attempt=1, wall_s=0.1)
        assert collect(str(tmp_path)).eta_s() is None

    def test_slowest_ranked_by_wall_time(self, tmp_path):
        _seed_manifest(str(tmp_path))
        slowest = collect(str(tmp_path)).slowest()
        assert [r.unit for r in slowest] == ["fig4:b", "fig4:d", "fig4:a"]

    def test_heartbeats_attach_to_running_units(self, tmp_path):
        _seed_manifest(str(tmp_path))
        write_beat(str(tmp_path / "heartbeats"), "fig4:e", seq=1,
                   interval_s=0.25)
        status = collect(str(tmp_path))
        assert "fig4:e" in status.beats
        doc = to_json(status)
        (running,) = doc["running"]
        assert running["unit"] == "fig4:e"
        assert running["heartbeat_age_s"] is not None
        assert running["heartbeat_stale"] is False


class TestJsonDocument:
    def test_document_shape(self, tmp_path):
        _seed_manifest(str(tmp_path))
        doc = to_json(collect(str(tmp_path)))
        assert doc["verb"] == "fig4"
        assert doc["generation"] == 1
        assert doc["counts"] == {"done": 3, "cached": 1, "running": 1,
                                 "quarantined": 1}
        assert doc["quarantined"] == ["fig4:f"]
        assert doc["retried"][0]["unit"] == "fig4:d"
        assert doc["skipped_lines"] == 0
        json.dumps(doc)  # must be JSON-serializable as-is


class TestRender:
    def test_text_view_mentions_everything(self, tmp_path):
        _seed_manifest(str(tmp_path))
        text = render(collect(str(tmp_path)))
        assert "verb 'fig4'" in text
        assert "4/6 units complete" in text
        assert "running:" in text and "fig4:e" in text
        assert "retried:" in text and "fig4:d" in text
        assert "quarantined:" in text and "fig4:f" in text
        assert "slowest completed units:" in text


class TestStatusVerb:
    def test_json_counts_match_manifest(self, tmp_path, capsys):
        manifest = _seed_manifest(str(tmp_path))
        assert main(["status", str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == RunManifest.load(manifest.path).counts()

    def test_text_output(self, tmp_path, capsys):
        _seed_manifest(str(tmp_path))
        assert main(["status", str(tmp_path)]) == 0
        assert "4/6 units complete" in capsys.readouterr().out

    def test_missing_manifest_is_error_exit_2(self, tmp_path, capsys):
        assert main(["status", str(tmp_path / "nope")]) == 2
        assert "no manifest" in capsys.readouterr().err

    def test_manifest_file_path_also_accepted(self, tmp_path, capsys):
        manifest = _seed_manifest(str(tmp_path))
        assert main(["status", manifest.path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == 6


class TestProfilesEndToEnd:
    def test_supervised_smoke_run_journals_profiles(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        code = main(["--samples", "20", "--requests", "600", "--jobs", "2",
                     "fig4", "--smoke", "--run-dir", run_dir])
        assert code == 0
        capsys.readouterr()
        state = RunManifest.load(os.path.join(run_dir, "manifest.jsonl"))
        done = [r for r in state.units.values() if r.status == mf.DONE]
        assert done, "supervised run journaled no done units"
        assert all(r.wall_s is not None and r.wall_s >= 0 for r in done)
        assert all(r.cpu_s is not None for r in done)
        assert main(["status", run_dir, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["counts"] == state.counts()
        assert doc["incomplete"] == len(state.incomplete()) == 0
        assert doc["slowest"], "no slowest-units profile in status"
