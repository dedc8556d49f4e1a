"""Steadiness check: repeat the benchmark over seeds and report each spread.

Run from the root of a checkout::

    python3 perfbench/steady.py --seeds 10 [--workloads report-cold,report-sim]

Workloads are interleaved round-robin (the starting workload rotates with
the seed), so a slow period on a shared machine lands on every workload
rather than on one.  For each end-to-end metric it prints the median over
the seeds and the spread, the distance between the first and third
quartiles as a share of the median, next to the metric's bound in
BENCHMARK.json.  The benchmark is steady when every spread other than
``setup_s`` stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List


def spread(values: List[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    with open("BENCHMARK.json") as handle:
        bench = json.load(handle)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    values: Dict[str, Dict[str, List[float]]] = {w: {} for w in workloads}
    durations: Dict[str, List[float]] = {w: [] for w in workloads}
    for i in range(args.seeds):
        seed = i + 1
        for j in range(len(workloads)):
            workload = workloads[(i + j) % len(workloads)]
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=False)
            durations[workload].append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary = " ".join(f"{k}={v['value']:.4g}"
                               for k, v in result["metrics"].items())
            print(f"seed {seed} {workload} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"{durations[workload][-1]:.1f}s {summary}", flush=True)
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    if args.seeds < 2:
        return 0
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':14} {'metric':12} {'median':>10} {'spread':>8} "
          f"{'bound':>6} {'run_s':>6}")
    for workload in workloads:
        for name, series in values[workload].items():
            s = spread(series)
            flag = "" if name == "setup_s" or s < bounds[name] / 3 else "  WIDE"
            print(f"{workload:14} {name:12} {statistics.median(series):10.4f} "
                  f"{s:8.4f} {bounds[name]:6.2f} "
                  f"{statistics.mean(durations[workload]):6.1f}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
