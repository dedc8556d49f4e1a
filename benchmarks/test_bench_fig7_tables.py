"""Benchmarks: regenerate Figure 7 (trace), Table 4 (trace replay), and
Table 5 (TCO)."""

from conftest import run_once

from repro.analysis.tco import format_comparison
from repro.experiments.fig7 import format_fig7, run_fig7
from repro.experiments.table4 import format_table4, run_table4
from repro.experiments.table5 import run_table5


def test_fig7(benchmark):
    result = run_once(benchmark, run_fig7, duration_s=3600.0)
    print()
    print(format_fig7(result))
    print("\npaper Fig. 7: low average (0.76 Gb/s through REM) with bursts")
    assert abs(result.stats["average_gbps"] - 0.76) < 0.01


def test_table4(benchmark, streams):
    result = run_once(benchmark, run_table4, samples=150, n_requests=8000,
                      streams=streams)
    print()
    print(format_table4(result))
    print(
        "\npaper Table 4: 0.76 / 0.76 Gb/s | 5.07 / 17.43 us | "
        "278.30 / 254.50 W"
    )
    assert abs(result.host.average_power_w - 278.3) < 6.0
    assert abs(result.snic.average_power_w - 254.5) < 3.0


def test_table5(benchmark, streams):
    result = run_once(benchmark, run_table5, samples=150, n_requests=8000,
                      streams=streams)
    print()
    print(format_comparison(result.comparisons))
    print("\npaper Table 5 savings: fio 2.7% | OVS 1.7% | REM -2.5% | Compress 70.7%")
    by_app = result.by_application()
    assert by_app["Compress"].savings_fraction > 0.6
    assert by_app["REM"].savings_fraction < 0.0
    assert by_app["fio"].savings_fraction > 0.0
    assert by_app["OVS"].savings_fraction > 0.0
