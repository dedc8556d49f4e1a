"""``--engine sim report`` output and work counts are pinned.

The golden test (test_report_golden.py) pins the default hybrid engine
to EXPERIMENTS.md.  This is the matching guard for the pure-simulation
engine: one in-process ``--engine sim report`` whose output must hash to
the committed digest and still read O1-O5 HOLDS, and whose counters
must repeat exactly.  Counts are deterministic, so any change to them —
a probe more or less, a rung stopped early or not — is deliberate and
updates the pins here together with CHANGES.md.  The run is the
session's ``sim_report`` fixture (tests/conftest.py).
"""

import hashlib

import pytest

from repro.cluster import fabric
from repro.obs import metrics as obs_metrics

# sha256 of `python -m repro --engine sim report -o FILE` (with the
# trailing newline the CLI writes).  Verdict-only knee rungs and the
# exact scalar-loop rewrites left it unchanged.
SIM_REPORT_SHA256 = (
    "a4bfdfbb4b48b84f14f63d36080777977a3028e71d32ad9ee1918b2d442ce6e9")

PINNED_COUNTERS = {
    obs_metrics.PROBES: 886,
    obs_metrics.PROBES_SIMULATED: 886,
    obs_metrics.VERDICT_ONLY: 130,
    obs_metrics.EVENTS_SCHEDULED: 102221,
    obs_metrics.EVENTS_FIRED: 102221,
    obs_metrics.CACHE_HITS: 14,
    obs_metrics.CACHE_MISSES: 71,
    fabric.M_ENQUEUED: 36751,
    fabric.M_MARKED: 419,
    fabric.M_DROPPED: 182,
}


def test_output_matches_committed_digest(sim_report):
    status, output, _ = sim_report
    assert status == 0
    assert hashlib.sha256(output).hexdigest() == SIM_REPORT_SHA256


@pytest.mark.parametrize("number", range(1, 6))
def test_observation_holds(sim_report, number):
    _, output, _ = sim_report
    assert f"[HOLDS] O{number}:".encode() in output


@pytest.mark.parametrize("name", sorted(PINNED_COUNTERS))
def test_counter_is_pinned(sim_report, name):
    _, _, counters = sim_report
    assert counters.get(name, 0) == PINNED_COUNTERS[name]


def test_no_analytic_probe_under_sim(sim_report):
    _, _, counters = sim_report
    assert counters.get(obs_metrics.ANALYTIC_HITS, 0) == 0
