"""A recorded ``trace fig4 --smoke`` is a valid Chrome trace.

Runs the verb in a fresh process, as a user would, and checks the two
exported files: every Chrome event has the fields the viewer needs, the
JSONL export parses line by line, and every finished probe shows either
its p99 or the verdict that stopped it early.  CI uploads the trace this
module writes (run it with ``--basetemp out``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, os.pardir)
PHASES = {"M", "X", "i", "C"}


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fig4-smoke-trace")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "fig4", "--smoke",
         "--trace-dir", str(out)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return out


@pytest.fixture(scope="module")
def chrome_events(trace_dir):
    with open(trace_dir / "trace.json") as handle:
        events = json.load(handle)["traceEvents"]
    assert events, "empty trace"
    return events


def test_chrome_events_have_the_viewer_fields(chrome_events):
    for event in chrome_events:
        assert {"name", "ph", "pid", "tid"} <= set(event), event
        assert event["ph"] in PHASES, event
        if event["ph"] == "X":
            assert event["dur"] >= 0, event
    assert any(event["ph"] == "M" for event in chrome_events), \
        "no track metadata"


def test_jsonl_export_parses(trace_dir):
    with open(trace_dir / "trace.jsonl") as handle:
        lines = [json.loads(line) for line in handle]
    assert lines


def test_every_finished_probe_shows_p99_or_verdict(chrome_events):
    done = [event for event in chrome_events if event["name"] == "probe.done"]
    assert done
    stopped = 0
    for event in done:
        args = event.get("args", {})
        if args.get("verdict") == "overloaded":
            stopped += 1
        else:
            assert "p99_us" in args, event
    # Both kinds occur: knee rungs stopped by their drops, and rungs
    # (verdict-only or full) that ran to the end.
    assert 0 < stopped < len(done)
