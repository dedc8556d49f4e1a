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
from repro.offload import loadbalancer

# sha256 of `python -m repro --engine sim report -o FILE` (with the
# trailing newline the CLI writes).  Re-pinned when `--engine sim` moved
# onto the hybrid engine's rate ladders: every knee and Fig. 5 rung now
# shares its ladder's draws instead of drawing its own substream, so
# the Fig. 5 rows moved (the knees did not), and the preamble sentence
# on `--engine sim` changed.  The sim report now differs from
# EXPERIMENTS.md in one value, the analytic error of one Fig. 5 rung.
SIM_REPORT_SHA256 = (
    "3382011de4c007ec603e4f69570cb7e434fa00bbe2205027fa59499710eb685e")

PINNED_COUNTERS = {
    # 58 knee descents of 4 rungs each (the top three unacceptable, the
    # fourth is the knee and out-serves every lower rung's bound), 8
    # 15-rung Fig. 5 curves and 70 single fixed-rate probes.
    obs_metrics.PROBES: 422,
    obs_metrics.PROBES_SIMULATED: 422,
    obs_metrics.VERDICT_ONLY: 130,
    # Each knee descent and Fig. 5 curve shares its first rung's draws.
    obs_metrics.SAMPLES_REUSED: 286,
    obs_metrics.EVENTS_SCHEDULED: 102221,
    obs_metrics.EVENTS_FIRED: 102221,
    obs_metrics.CACHE_HITS: 14,
    obs_metrics.CACHE_MISSES: 71,
    fabric.M_ENQUEUED: 36751,
    fabric.M_MARKED: 419,
    fabric.M_DROPPED: 182,
    # The faults study's 20 balancer calls offer 600,000 packets; the
    # rest are verified speculative windows.
    loadbalancer.M_SCALAR_PACKETS: 98652,
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
