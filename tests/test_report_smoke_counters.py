"""``report --smoke`` does a pinned amount of work under either engine.

The default report's counters are pinned next to its golden file
(test_report_golden.py, test_report_sim.py).  These pin the smoke tier,
which CI and the cold-start tests run most: counts are deterministic, so
a probe more or less, a rung stopped early or not, one draw shared more
or less, or one DES event added or dropped fails here instead of going
unseen.  Under ``--engine sim`` every knee descent (the top rungs of
its 12-rung ladder that decide the knee) and Fig. 5 curve shares one
set of draws, so ``probe.samples_reused`` counts all but the first rung
of each.
"""

import pytest

from repro.obs import metrics as obs_metrics

PINNED_COUNTERS = {
    "hybrid": {
        obs_metrics.PROBES_SIMULATED: 157,
        obs_metrics.ANALYTIC_HITS: 295,
        obs_metrics.VERDICT_ONLY: 19,
        obs_metrics.SAMPLES_REUSED: 73,
        obs_metrics.EVENTS_FIRED: 12941,
        obs_metrics.CACHE_HITS: 6,
        obs_metrics.CACHE_MISSES: 43,
    },
    "sim": {
        obs_metrics.PROBES_SIMULATED: 196,
        obs_metrics.ANALYTIC_HITS: 0,
        obs_metrics.VERDICT_ONLY: 59,
        obs_metrics.SAMPLES_REUSED: 112,
        obs_metrics.EVENTS_FIRED: 12941,
        obs_metrics.CACHE_HITS: 6,
        obs_metrics.CACHE_MISSES: 43,
    },
}


@pytest.fixture(scope="module", params=sorted(PINNED_COUNTERS))
def smoke_report(request, tmp_path_factory):
    """(engine, status, counters) of one in-process ``report --smoke``."""
    from repro.cli import main
    from repro.core import hybrid

    target = tmp_path_factory.mktemp("smoke-report") / "report.md"
    # main() switches the process-wide engine; restore it afterwards.
    previous = hybrid.configure_engine(None)
    try:
        status = main(["--engine", request.param, "--jobs", "1", "report",
                       "--smoke", "-o", str(target)])
    finally:
        hybrid.configure_engine(previous)
    return request.param, status, obs_metrics.registry().counter_values()


def test_smoke_report_counters_are_pinned(smoke_report):
    engine, status, counters = smoke_report
    assert status == 0
    got = {name: counters.get(name, 0) for name in PINNED_COUNTERS[engine]}
    assert got == PINNED_COUNTERS[engine]
