"""YCSB workload generation (Cooper et al., SoCC'10; §3.4).

The paper runs Redis under YCSB workloads A (50/50 read/update), B (95/5)
and C (read-only), with 30 K records of 1 KB and 10 K operations.  This
module reproduces the generator: zipfian request distribution over the
key space (the YCSB default), latest-distribution support, and the
standard workload letter presets.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterator, Tuple

import numpy as np

DEFAULT_RECORDS = 30_000
DEFAULT_OPERATIONS = 10_000
DEFAULT_VALUE_BYTES = 1024
ZIPFIAN_CONSTANT = 0.99


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    read_fraction: float
    update_fraction: float
    records: int = DEFAULT_RECORDS
    operations: int = DEFAULT_OPERATIONS
    value_bytes: int = DEFAULT_VALUE_BYTES

    def __post_init__(self):
        total = self.read_fraction + self.update_fraction
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"op mix must sum to 1, got {total}")


WORKLOAD_A = WorkloadSpec("workload_a", read_fraction=0.5, update_fraction=0.5)
WORKLOAD_B = WorkloadSpec("workload_b", read_fraction=0.95, update_fraction=0.05)
WORKLOAD_C = WorkloadSpec("workload_c", read_fraction=1.0, update_fraction=0.0)

WORKLOADS = {"a": WORKLOAD_A, "b": WORKLOAD_B, "c": WORKLOAD_C}


class ZipfianGenerator:
    """Gray et al.'s zipfian generator, as used by YCSB."""

    def __init__(self, items: int, rng: np.random.Generator,
                 constant: float = ZIPFIAN_CONSTANT):
        if items < 1:
            raise ValueError("need at least one item")
        self.items = items
        self.rng = rng
        self.theta = constant
        self.zeta_n = self._zeta(items, constant)
        self.alpha = 1.0 / (1.0 - constant)
        zeta2 = self._zeta(2, constant)
        self.eta = (1 - (2.0 / items) ** (1 - constant)) / (1 - zeta2 / self.zeta_n)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return float(np.sum(1.0 / np.arange(1, n + 1) ** theta))

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5**self.theta:
            return 1
        return int(self.items * (self.eta * u - self.eta + 1) ** self.alpha)


@dataclass(frozen=True)
class Operation:
    kind: str  # "read" | "update"
    key: bytes
    value: bytes = b""


_RECORD_KEY = b"user%010d"


def record_key(index: int) -> bytes:
    return _RECORD_KEY % index


def load_records(spec: WorkloadSpec, rng: np.random.Generator
                 ) -> Iterator[Tuple[bytes, bytes]]:
    """The YCSB load phase: insert every record once, as (key, value).

    Every load operation is an update, so the records are the whole
    phase; no per-record :class:`Operation` is built.  The value is drawn
    on the first ``next``, as a per-record generator would.
    """
    value = bytes(rng.integers(ord("a"), ord("z") + 1,
                               size=spec.value_bytes, dtype=np.uint8))
    # ``_RECORD_KEY.__mod__`` is record_key without a Python frame per key
    yield from zip(map(_RECORD_KEY.__mod__, range(spec.records)), repeat(value))


def run_phase(spec: WorkloadSpec, rng: np.random.Generator) -> Iterator[Operation]:
    """The transaction phase: zipfian keys, the spec's op mix."""
    zipf = ZipfianGenerator(spec.records, rng)
    value = bytes(rng.integers(ord("a"), ord("z") + 1,
                               size=spec.value_bytes, dtype=np.uint8))
    for _ in range(spec.operations):
        index = min(zipf.next(), spec.records - 1)
        if rng.random() < spec.read_fraction:
            yield Operation("read", record_key(index))
        else:
            yield Operation("update", record_key(index), value)
