"""Remote storage over NVMe-oF with a fio-style I/O engine (§3.4).

The paper's fio benchmark reads/writes a remote RAMDisk through the
NVMe-over-Fabrics offload engine in ConnectX-6/BlueField-2.  We build the
stack for real:

* :class:`RamDisk` — a block device backed by memory, holding only the
  blocks written to it;
* :class:`NvmeOfTarget` — command-level NVMe-oF target: admin (identify)
  and I/O (read/write) commands against namespaces;
* :class:`FioEngine` — generates randread/randwrite command streams at a
  queue depth, the way fio's ``iodepth`` works.

CPU work per command is small (the offload engine moves the data), which
is exactly why the SNIC CPU matches the host on fio throughput (Key
Observation 1's counterpoint).  Work units: ``io_request`` per command
plus ``io_block_byte`` per byte for the residual touch.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Tuple, Union

import numpy as np

from ..core.work import WorkUnits

DEFAULT_BLOCK_BYTES = 64 * 1024  # the paper's 64 KB block I/O requests


class IoKind(str, Enum):
    READ = "read"
    WRITE = "write"


class StorageError(RuntimeError):
    pass


class RamDisk:
    """An in-memory block device (the paper's 16 GB RAMDisk, scaled).

    Sparse: only written blocks hold memory.  ``_blocks`` maps a block
    index to that block's bytes; a block never written reads as zeros,
    exactly as a zero-filled device would.  A ``bytes`` payload is kept
    by reference (one memoryview slice per block, so one pattern written
    many times is stored once); any other buffer is copied first, so a
    caller mutating its ``bytearray`` later cannot change the disk.
    """

    def __init__(self, capacity_bytes: int, block_bytes: int = 4096):
        if capacity_bytes % block_bytes:
            raise ValueError("capacity must be a multiple of the block size")
        self.block_bytes = block_bytes
        self.block_count = capacity_bytes // block_bytes
        self._blocks: Dict[int, Union[bytes, memoryview]] = {}
        self._zero = bytes(block_bytes)

    def read(self, lba: int, blocks: int) -> bytes:
        self._check(lba, blocks)
        stored, zero = self._blocks.get, self._zero
        return b"".join([stored(index, zero) for index in range(lba, lba + blocks)])

    def write(self, lba: int, payload: bytes) -> None:
        if len(payload) % self.block_bytes:
            raise StorageError("payload not block aligned")
        blocks = len(payload) // self.block_bytes
        self._check(lba, blocks)
        if not isinstance(payload, bytes):
            payload = bytes(payload)
        view, size = memoryview(payload), self.block_bytes
        for block in range(blocks):
            self._blocks[lba + block] = view[block * size : (block + 1) * size]

    def __getstate__(self) -> dict:
        # memoryviews do not pickle; their bytes do.
        state = dict(self.__dict__)
        state["_blocks"] = {index: bytes(data) for index, data in self._blocks.items()}
        return state

    def _check(self, lba: int, blocks: int) -> None:
        if lba < 0 or blocks < 1 or lba + blocks > self.block_count:
            raise StorageError(f"I/O out of range: lba={lba} blocks={blocks}")


@dataclass(frozen=True)
class NvmeCommand:
    opcode: str  # "read" | "write" | "identify"
    namespace_id: int = 1
    lba: int = 0
    blocks: int = 0
    payload: bytes = b""


@dataclass
class NvmeCompletion:
    status: int  # 0 = success
    data: bytes = b""


class NvmeOfTarget:
    """Command-level NVMe-oF target over one or more namespaces."""

    def __init__(self):
        self.namespaces: Dict[int, RamDisk] = {}
        self.commands_processed = 0

    def add_namespace(self, namespace_id: int, disk: RamDisk) -> None:
        if namespace_id in self.namespaces:
            raise StorageError(f"namespace {namespace_id} exists")
        self.namespaces[namespace_id] = disk

    def submit(self, command: NvmeCommand) -> Tuple[NvmeCompletion, WorkUnits]:
        self.commands_processed += 1
        work = WorkUnits({"io_request": 1.0})
        if command.opcode == "identify":
            listing = ",".join(
                f"{nsid}:{disk.block_count}" for nsid, disk in sorted(self.namespaces.items())
            )
            return NvmeCompletion(0, listing.encode()), work
        disk = self.namespaces.get(command.namespace_id)
        if disk is None:
            return NvmeCompletion(status=1), work
        try:
            if command.opcode == "read":
                data = disk.read(command.lba, command.blocks)
                work.add("io_block_byte", float(len(data)))
                return NvmeCompletion(0, data), work
            if command.opcode == "write":
                disk.write(command.lba, command.payload)
                work.add("io_block_byte", float(len(command.payload)))
                return NvmeCompletion(0), work
        except StorageError:
            return NvmeCompletion(status=2), work
        return NvmeCompletion(status=3), work


@dataclass
class FioJobSpec:
    """A fio-style job: pattern, block size, depth, op mix."""

    kind: IoKind = IoKind.READ
    block_bytes: int = DEFAULT_BLOCK_BYTES
    iodepth: int = 4
    operations: int = 1000


class FioEngine:
    """Generates an NVMe command stream against a target namespace."""

    def __init__(self, target: NvmeOfTarget, namespace_id: int,
                 rng: np.random.Generator):
        self.target = target
        self.namespace_id = namespace_id
        self.rng = rng

    def run(self, job: FioJobSpec) -> Tuple[int, WorkUnits]:
        """Execute the whole job synchronously; returns (errors, work)."""
        disk = self.target.namespaces[self.namespace_id]
        blocks_per_op = job.block_bytes // disk.block_bytes
        if blocks_per_op < 1:
            raise StorageError("job block size below device block size")
        max_lba = disk.block_count - blocks_per_op
        errors = 0
        total = WorkUnits()
        pattern = bytes(self.rng.integers(0, 256, size=job.block_bytes, dtype=np.uint8))
        for _ in range(job.operations):
            lba = int(self.rng.integers(0, max_lba + 1))
            lba -= lba % blocks_per_op
            if job.kind is IoKind.READ:
                command = NvmeCommand("read", self.namespace_id, lba, blocks_per_op)
            else:
                command = NvmeCommand(
                    "write", self.namespace_id, lba, blocks_per_op, pattern
                )
            completion, work = self.target.submit(command)
            total.merge(work)
            if completion.status != 0:
                errors += 1
        return errors, total
