"""The speed of the CPU the program runs on, measured while it runs.

A shared host can run the same code at very different speeds from one
minute to the next: on a 2-vCPU VM a fixed pure-Python loop took 8 ms in
some multi-second periods and 14 ms in others, on each vCPU independently.
Wall and CPU times of the program move with it, so a run's medians drift by
far more than any change worth detecting.

``SpeedProbe`` runs a fixed calibration loop at low priority (nice 10, about
a tenth of the CPU against a busy program) pinned to the same CPU as the
program, so both sample the same periods.  The loop publishes how many
chunks it has finished and how much CPU time it has used.  Reading that
before and after a program process gives the CPU's speed over exactly that
process's lifetime, in chunks per CPU second.  ``reference_seconds`` then
rescales the process's CPU time to a fixed reference speed of one chunk per
millisecond.  A change to the program moves the rescaled time; a slow period
of the host moves the numerator and the denominator alike and mostly cancels.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import time
from typing import Optional, Tuple

NICE = 10
# One chunk per millisecond is the reference speed.
REFERENCE_CHUNKS_PER_S = 1000.0


def chunk(table: dict) -> float:
    """A fixed unit of interpreter work: dict updates and float arithmetic."""
    x = 0.0
    for i in range(5000):
        k = i & 255
        table[k] = table.get(k, 0.0) * 0.5 + i
        x += k * 1.5
    return x


def _loop(shared, cpu: Optional[int]) -> None:
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})
    os.nice(NICE)
    table: dict = {}
    start = time.process_time()
    chunks = 0
    while not shared[2]:
        chunk(table)
        chunks += 1
        shared[0] = chunks
        shared[1] = time.process_time() - start


Reading = Tuple[float, float]  # (chunks done, calibration CPU seconds)


def reference_seconds(cpu_s: float, before: Reading, after: Reading) -> float:
    """``cpu_s`` spent between two readings, rescaled to the reference speed.

    NaN when the loop finished no chunk in between, as it may not for a
    process that fails at once.
    """
    chunks, seconds = after[0] - before[0], after[1] - before[1]
    if chunks <= 0 or seconds <= 0:
        return math.nan
    return cpu_s * (chunks / seconds) / REFERENCE_CHUNKS_PER_S


def pinned_cpu() -> Optional[int]:
    """Pin this process (and so every child it starts) to one CPU.

    Returns the CPU, or None where the platform cannot pin.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class SpeedProbe:
    """The calibration loop as a child process; use as a context manager."""

    def __init__(self, cpu: Optional[int]):
        ctx = multiprocessing.get_context("fork")
        self._shared = ctx.RawArray("d", 3)  # chunks, CPU seconds, stop flag
        self._proc = ctx.Process(target=_loop, args=(self._shared, cpu),
                                 daemon=True)

    def __enter__(self) -> "SpeedProbe":
        self._proc.start()
        deadline = time.monotonic() + 30.0
        while self._shared[0] < 1:
            if not self._proc.is_alive() or time.monotonic() > deadline:
                self.__exit__(None, None, None)
                raise RuntimeError("the calibration loop did not start")
            time.sleep(0.01)
        return self

    def read(self) -> Reading:
        return self._shared[0], self._shared[1]

    def __exit__(self, *exc) -> None:
        self._shared[2] = 1.0
        self._proc.join(10.0)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()
