"""Shared measured results for the experiment test suite.

Running the full Fig. 4 sweep takes ~15 s; the anchor tests share one
session-scoped run (profiles are cached inside the library, so the other
experiment fixtures reuse them too).
"""

import pytest

from repro.core.rng import RandomStreams
from repro.experiments.fig4 import run_fig4
from repro.experiments.fig5 import run_fig5
from repro.experiments.fig6 import rows_from_fig4

SAMPLES = 150
N_REQUESTS = 10_000


@pytest.fixture(scope="session")
def fig4_rows():
    return run_fig4(samples=SAMPLES, n_requests=N_REQUESTS,
                    streams=RandomStreams(7))


@pytest.fixture(scope="session")
def fig4_by_key(fig4_rows):
    return {row.key: row for row in fig4_rows}


@pytest.fixture(scope="session")
def fig6_rows(fig4_rows):
    return rows_from_fig4(fig4_rows)


@pytest.fixture(scope="session")
def fig5_curves():
    return run_fig5(samples=120, n_requests=6000, streams=RandomStreams(7))
