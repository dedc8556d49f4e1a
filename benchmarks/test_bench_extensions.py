"""Benchmarks for the extension experiments: Strategy 1 what-ifs."""

from conftest import run_once

from repro.experiments.strategy1 import format_strategy1, run_strategy1


def test_strategy1_stack_offload(benchmark, streams):
    """§5.3 Strategy 1: how much of the TCP/UDP gap does stack offload
    recover?  (paper: proposed, not measured — this is the what-if)"""
    rows = run_once(benchmark, run_strategy1, samples=150, n_requests=8000,
                    streams=streams)
    print()
    print(format_strategy1(rows))
    from repro.experiments.strategy1 import rows_by_scenario

    by_scenario = rows_by_scenario(rows)
    for key, today in by_scenario["today"].items():
        assert by_scenario["datapath-offload"][key] > today
