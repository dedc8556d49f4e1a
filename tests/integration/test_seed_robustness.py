"""Seed robustness: the paper's conclusions must not depend on the RNG.

The anchor tests pin one seed; these verify the *qualitative* results —
who wins, by roughly what factor — reproduce across independent seeds.
"""

import pytest

from repro.core.rng import RandomStreams
from repro.experiments.fig4 import run_fig4

KEYS = ("udp:64", "rdma:1024", "crypto:sha1", "rem:file_image",
        "compression:txt", "fio:read")


@pytest.fixture(scope="module")
def runs():
    results = {}
    for seed in (101, 202):
        rows = run_fig4(keys=KEYS, samples=120, n_requests=8000,
                        streams=RandomStreams(seed))
        results[seed] = {row.key: row for row in rows}
    return results


class TestSeedRobustness:
    def test_winners_stable(self, runs):
        """Every qualitative verdict (SNIC wins / loses) agrees."""
        for key in KEYS:
            verdicts = {
                seed: rows[key].throughput_ratio > 1.0
                for seed, rows in runs.items()
            }
            assert len(set(verdicts.values())) == 1, (key, verdicts)

    def test_ratios_within_tolerance(self, runs):
        """Quantitative ratios agree within 20 % across seeds."""
        seeds = sorted(runs)
        for key in KEYS:
            first = runs[seeds[0]][key].throughput_ratio
            second = runs[seeds[1]][key].throughput_ratio
            assert first == pytest.approx(second, rel=0.2), key

    def test_udp_band_holds_for_all_seeds(self, runs):
        for seed, rows in runs.items():
            assert 0.12 <= rows["udp:64"].throughput_ratio <= 0.25, seed

    def test_accel_wins_hold_for_all_seeds(self, runs):
        for seed, rows in runs.items():
            assert rows["rem:file_image"].throughput_ratio > 1.4, seed
            assert rows["compression:txt"].throughput_ratio > 2.2, seed
