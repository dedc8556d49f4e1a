"""Latency attribution: components must sum to what we report.

The acceptance bar for the attribution table is that the per-component
means sum to the reported mean sojourn within 1 % at every operating
point; the fast paths actually achieve exact (float-add) equality
because components are accumulated alongside the sojourns.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.attribution import (
    format_attribution_markdown,
    row_from_metrics,
    rows_from_fig4,
)
from repro.core.queueing import (
    COMP_BATCH_WAIT,
    COMP_QUEUE_WAIT,
    COMP_SERVICE,
    COMP_STACK_RTT,
    COMPONENTS,
    attribute_outcome,
    outcome_to_metrics,
    simulate_batch_server,
    simulate_gg1,
)
from repro.core.rng import RandomStreams
from repro.experiments.fig4 import run_fig4


def _sampler(rng, n):
    return np.full(n, 2e-6)


class TestComponentInvariant:
    def test_gg1_components_sum_to_sojourns(self):
        rng = np.random.default_rng(3)
        outcome = simulate_gg1(200_000.0, _sampler, 4000, rng)
        assert set(outcome.components) == {COMP_QUEUE_WAIT, COMP_SERVICE}
        assert outcome.component_residual() < 1e-12

    def test_gg1_with_queue_limit_keeps_invariant(self):
        rng = np.random.default_rng(4)
        outcome = simulate_gg1(600_000.0, _sampler, 4000, rng,
                               queue_limit=20e-6)
        assert outcome.dropped > 0
        assert outcome.component_residual() < 1e-12

    def test_batch_server_components_sum_to_sojourns(self):
        rng = np.random.default_rng(5)
        outcome = simulate_batch_server(
            300_000.0, 4000, rng, batch_size=32, batch_timeout=15e-6,
            setup_time=4e-6, per_item_time=0.5e-6,
        )
        assert set(outcome.components) == {COMP_BATCH_WAIT, COMP_SERVICE}
        assert outcome.component_residual() < 1e-9

    def test_add_component_extends_both_sides(self):
        rng = np.random.default_rng(6)
        outcome = simulate_gg1(100_000.0, _sampler, 500, rng)
        before = outcome.sojourns.copy()
        outcome.add_component(COMP_STACK_RTT, np.full(500, 3e-6))
        assert np.allclose(outcome.sojourns, before + 3e-6)
        assert outcome.component_residual() < 1e-12


class TestAttribution:
    def test_component_means_sum_to_latency_mean(self):
        rng = np.random.default_rng(7)
        outcome = simulate_gg1(400_000.0, _sampler, 6000, rng)
        outcome.add_component(COMP_STACK_RTT, np.full(6000, 5e-6))
        metrics = outcome_to_metrics(outcome, offered_rate=400_000.0,
                                     bytes_per_request=64)
        attr = metrics.extra
        component_sum = sum(
            attr.get(f"attr.{name}_mean_s", 0.0) for name in COMPONENTS
        )
        assert attr["attr.sojourn_mean_s"] == pytest.approx(
            metrics.latency_mean, rel=1e-12)
        assert component_sum == pytest.approx(metrics.latency_mean, rel=1e-9)

    def test_tail_means_sum_to_tail_mean(self):
        rng = np.random.default_rng(8)
        outcome = simulate_batch_server(
            300_000.0, 6000, rng, batch_size=32, batch_timeout=15e-6,
            setup_time=4e-6, per_item_time=0.5e-6,
        )
        attr = attribute_outcome(outcome)
        tail_sum = sum(
            value for key, value in attr.items()
            if key.endswith("_tail_s")
        )
        assert tail_sum == pytest.approx(attr["attr.tail_mean_s"], rel=1e-9)
        assert attr["attr.tail_mean_s"] >= attr["attr.sojourn_mean_s"]

    def test_empty_outcome_yields_no_attribution(self):
        rng = np.random.default_rng(9)
        outcome = simulate_gg1(100.0, _sampler, 1, rng)
        outcome.sojourns = outcome.sojourns[:0]
        outcome.components = {}
        assert attribute_outcome(outcome) == {}


class TestAttributionReport:
    @pytest.fixture(scope="class")
    def fig4_rows(self):
        return run_fig4(keys=("udp:64", "rem:file_image"), samples=20,
                        n_requests=600, streams=RandomStreams(11))

    def test_every_operating_point_sums_within_one_percent(self, fig4_rows):
        rows = rows_from_fig4(fig4_rows)
        assert len(rows) == 4  # two functions x two platforms
        for row in rows:
            assert row.mean_components, row.function
            assert row.residual_fraction <= 0.01, (
                f"{row.function}@{row.platform}: "
                f"{row.component_sum_s} vs {row.mean_s}")

    def test_accelerator_rows_expose_batch_wait(self, fig4_rows):
        rows = rows_from_fig4(fig4_rows)
        accel = next(r for r in rows if r.platform == "snic-accel")
        assert accel.mean_components.get("batch_wait", 0.0) > 0.0
        cpu = next(r for r in rows if r.platform == "host")
        assert cpu.mean_components.get("queue_wait", 0.0) > 0.0

    def test_renderings_cover_every_row(self, fig4_rows):
        rows = rows_from_fig4(fig4_rows)
        markdown = format_attribution_markdown(rows)
        assert markdown.count("\n") == len(rows) + 1  # header + separator
        for row in rows:
            assert row.function in markdown
        assert "| ok |" in markdown  # the sum check passed somewhere
