"""Benchmark: regenerate Figure 5 (REM throughput & p99 vs packet rate)."""

from conftest import run_once

from repro.experiments.fig5 import format_fig5, run_fig5

PAPER_NOTES = """
paper Fig. 5 anchors (MTU packets):
  SNIC accelerator ................ caps at ~50 Gb/s, both rule sets
  host file_executable, 8 cores ... scales to ~78 Gb/s
  host file_image, 8 cores ........ p99 explodes past ~40 Gb/s
  host p99 below the knee ......... ~5.1 us;  accelerator ~25.1 us
"""


def test_fig5(benchmark, streams):
    figure = run_once(benchmark, run_fig5, samples=150, n_requests=8000,
                      streams=streams)
    print()
    print(format_fig5(figure))
    print(PAPER_NOTES)
    for ruleset, curves in figure.items():
        accel = next(c for c in curves if c.platform == "snic-accel")
        assert 40.0 <= accel.max_achieved_gbps() <= 56.0
    exe8 = next(c for c in figure["file_executable"] if c.label == "host-8c")
    assert 68.0 <= exe8.max_achieved_gbps() <= 90.0
