"""The committed EXPERIMENTS.md is the report's exact output.

``python -m repro report`` at default fidelity must reproduce the
committed file byte for byte.  A mismatch means either a model change
drifted a measured number without review, or a reviewed change shipped
without regenerating EXPERIMENTS.md — both are bugs.  The default
engine is hybrid, so this also pins the validated analytic fast path:
an untrusted model sneaking a prediction into an anchor row shows up
here as a byte diff.

The same run's work counters are pinned too.  Counts are deterministic,
so a rewrite that keeps the bytes but changes the work — a probe more
or less, one DES event or fabric packet added or dropped — fails here,
where a timing ratio could not see it.
"""

from pathlib import Path

import pytest

from repro.cluster import fabric
from repro.obs import metrics as obs_metrics
from repro.offload import loadbalancer

REPO_ROOT = Path(__file__).resolve().parents[1]

PINNED_COUNTERS = {
    obs_metrics.PROBES: 886,
    obs_metrics.PROBES_SIMULATED: 276,
    obs_metrics.ANALYTIC_HITS: 610,
    obs_metrics.VERDICT_ONLY: 42,
    obs_metrics.SAMPLES_REUSED: 140,
    obs_metrics.CACHE_HITS: 14,
    obs_metrics.CACHE_MISSES: 71,
    obs_metrics.EVENTS_SCHEDULED: 102221,
    obs_metrics.EVENTS_FIRED: 102221,
    fabric.M_ENQUEUED: 36751,
    fabric.M_MARKED: 419,
    fabric.M_DROPPED: 182,
    # The faults study's 20 balancer calls offer 600,000 packets; the
    # rest are verified speculative windows.
    loadbalancer.M_SCALAR_PACKETS: 98652,
}


def test_experiments_md_is_the_report_output(hybrid_report, capsys):
    status, output, _ = hybrid_report
    capsys.readouterr()
    assert status == 0
    committed = (REPO_ROOT / "EXPERIMENTS.md").read_text()
    assert output == committed, (
        "EXPERIMENTS.md is stale — regenerate it with "
        "`python -m repro report > EXPERIMENTS.md`"
    )


@pytest.mark.parametrize("name", sorted(PINNED_COUNTERS))
def test_counter_is_pinned(hybrid_report, name):
    _, _, counters = hybrid_report
    assert counters.get(name, 0) == PINNED_COUNTERS[name]


def test_probes_split_into_simulated_and_analytic(hybrid_report):
    _, _, counters = hybrid_report
    assert counters[obs_metrics.PROBES] == (
        counters[obs_metrics.PROBES_SIMULATED]
        + counters[obs_metrics.ANALYTIC_HITS])
