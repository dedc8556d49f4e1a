"""MICA-style partitioned key-value store (Lim et al., NSDI'14; §3.4).

The defining features reproduced here:

* **partitioned design** — keys hash to partitions, each owned by one
  core (no cross-core locking);
* **lossy bucket index** — fixed-size buckets of (tag, offset) slots with
  eviction on overflow, exactly MICA's lossy mode;
* **circular append log** — values live in a per-partition ring; old
  entries are overwritten and their index slots invalidated lazily;
* **request batching** — clients submit GETs in batches (the paper runs
  batch sizes 4 and 32), which amortizes the per-message RDMA cost.

Work units per op: one hash probe for the bucket, one random access for
the log read, value-byte movement.  The per-batch transport cost is added
by the experiment layer (one RDMA message per batch).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.work import WorkUnits

BUCKET_SLOTS = 8
_PUT_CHUNK = 2048  # pairs hashed per numpy pass in a bulk load

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MIX1 = 0xFF51AFD7ED558CCD
_MIX2 = 0xC4CEB9FE1A85EC53
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _hash64(key: bytes) -> int:
    value = _FNV_OFFSET
    for byte in key:
        value ^= byte
        value = (value * _FNV_PRIME) & _MASK64
    # murmur-style finalizer: FNV alone leaves the high bits poorly mixed
    # for short, similar keys, which would collapse tags into collisions.
    value ^= value >> 33
    value = (value * _MIX1) & _MASK64
    value ^= value >> 33
    value = (value * _MIX2) & _MASK64
    value ^= value >> 33
    return value


def _hash64_many(keys: Sequence[bytes]) -> List[int]:
    """:func:`_hash64` of every key in one numpy ``uint64`` pass.

    uint64 arithmetic wraps modulo 2**64, which is exactly the masking
    of the scalar version, so the hashes are identical.  Byte column j
    only updates keys longer than j.
    """
    count = len(keys)
    if count == 0:
        return []
    lengths = np.fromiter(map(len, keys), dtype=np.intp, count=count)
    width = int(lengths.max())
    flat = np.frombuffer(b"".join(keys), dtype=np.uint8)
    if int(lengths.min()) == width:
        table = flat.reshape(count, width)
    else:
        table = np.zeros((count, width), dtype=np.uint8)
        starts = np.cumsum(lengths) - lengths
        rows = np.repeat(np.arange(count), lengths)
        table[rows, np.arange(len(flat)) - np.repeat(starts, lengths)] = flat
    value = np.full(count, _FNV_OFFSET, dtype=np.uint64)
    for column in range(width):
        live = lengths > column
        if live.all():
            value = (value ^ table[:, column]) * np.uint64(_FNV_PRIME)
        else:
            value[live] = (value[live] ^ table[live, column]) * np.uint64(_FNV_PRIME)
    shift = np.uint64(33)
    value ^= value >> shift
    value *= np.uint64(_MIX1)
    value ^= value >> shift
    value *= np.uint64(_MIX2)
    value ^= value >> shift
    return value.tolist()


@dataclass
class _Slot:
    # Slots, not a per-instance dict: a profile build makes 20k of these.
    __slots__ = ("tag", "offset")
    tag: int
    offset: int


class _Partition:
    """One core's bucket index and circular log.

    The log grows to its high-water mark instead of being preallocated:
    ``log_bytes`` is the ring's size, ``len(log)`` only what was ever
    written.  Bytes past the mark read as the zeros a preallocated ring
    would hold there (:meth:`_log_bytes`).
    """

    def __init__(self, buckets: int, log_bytes: int):
        self.buckets: List[List[_Slot]] = [[] for _ in range(buckets)]
        self.log_bytes = log_bytes
        self.log = bytearray()
        self.head = 0
        self.wrapped = False

    def _append(self, key: bytes, value: bytes) -> int:
        record = len(key).to_bytes(2, "little") + len(value).to_bytes(4, "little") + key + value
        if len(record) > self.log_bytes:
            raise ValueError("record larger than partition log")
        if self.head + len(record) > self.log_bytes:
            self.head = 0
            self.wrapped = True
        offset = self.head
        # head never passes len(log), so this overwrites or extends in place.
        self.log[offset : offset + len(record)] = record
        self.head += len(record)
        return offset

    def _read(self, offset: int, key: bytes) -> Optional[bytes]:
        # Past the high-water mark a length prefix reads short, but its
        # missing high bytes are zeros, so the little-endian value is the same.
        key_length = int.from_bytes(self.log[offset : offset + 2], "little")
        value_length = int.from_bytes(self.log[offset + 2 : offset + 6], "little")
        start = offset + 6
        stored_key = self._log_bytes(start, key_length)
        if stored_key != key:
            return None  # overwritten by log wrap or tag collision
        start += key_length
        return self._log_bytes(start, value_length)

    def _log_bytes(self, start: int, length: int) -> bytes:
        """``log[start:start + length]`` of the preallocated ring.

        A stale slot can parse a garbage length that runs past the
        high-water mark; there the ring held zeros up to ``log_bytes``,
        and a short slice could compare equal to a key the zero-padded
        one does not.
        """
        end = start + length
        chunk = bytes(self.log[start:end])
        if end > len(self.log):
            missing = min(end, self.log_bytes) - max(start, len(self.log))
            if missing > 0:
                chunk += bytes(missing)
        return chunk


class MicaStore:
    """The store; ``partitions`` should match serving cores."""

    def __init__(self, partitions: int = 8, buckets_per_partition: int = 4096,
                 log_bytes_per_partition: int = 1 << 22):
        if partitions < 1:
            raise ValueError("need at least one partition")
        self.partitions = [
            _Partition(buckets_per_partition, log_bytes_per_partition)
            for _ in range(partitions)
        ]
        self.evictions = 0

    def _locate(self, key: bytes) -> Tuple[_Partition, int, int]:
        return self._place(_hash64(key))

    def _place(self, h: int) -> Tuple[_Partition, int, int]:
        partition = self.partitions[h % len(self.partitions)]
        bucket_index = (h >> 16) % len(partition.buckets)
        tag = (h >> 48) & 0xFFFF
        return partition, bucket_index, tag

    def put(self, key: bytes, value: bytes) -> WorkUnits:
        self._insert(key, value, *self._locate(key))
        return WorkUnits(
            {
                "hash_probe": 1.0,
                "mem_random_access": 1.0,
                "kv_value_byte": float(len(value)),
            }
        )

    def put_many(self, pairs: Iterable[Tuple[bytes, bytes]]) -> int:
        """Bulk :meth:`put` in order (a load phase); returns the count.

        Hashes keys a chunk at a time in one vectorized pass each
        (:func:`_hash64_many`), so the pairs stream instead of all being
        held at once, and builds no per-put WorkUnits; the logs, buckets
        and evictions end exactly as one ``put`` per pair leaves them.
        """
        pairs = iter(pairs)
        count = 0
        while True:
            chunk = list(islice(pairs, _PUT_CHUNK))
            if not chunk:
                return count
            hashes = _hash64_many([key for key, _ in chunk])
            for (key, value), h in zip(chunk, hashes):
                self._insert(key, value, *self._place(h))
            count += len(chunk)

    def _insert(self, key: bytes, value: bytes, partition: _Partition,
                bucket_index: int, tag: int) -> None:
        offset = partition._append(key, value)
        bucket = partition.buckets[bucket_index]
        for slot in bucket:
            if slot.tag == tag:
                slot.offset = offset
                break
        else:
            if len(bucket) >= BUCKET_SLOTS:
                bucket.pop(0)  # lossy eviction of the oldest slot
                self.evictions += 1
            bucket.append(_Slot(tag, offset))

    def get(self, key: bytes) -> Tuple[Optional[bytes], WorkUnits]:
        partition, bucket_index, tag = self._locate(key)
        work = WorkUnits({"hash_probe": 1.0})
        for slot in partition.buckets[bucket_index]:
            if slot.tag == tag:
                work.add("mem_random_access", 1.0)
                value = partition._read(slot.offset, key)
                if value is not None:
                    work.add("kv_value_byte", float(len(value)))
                    return value, work
        return None, work

    def get_batch(self, keys: List[bytes]) -> Tuple[List[Optional[bytes]], WorkUnits]:
        """Batched GET: one transport message carries ``len(keys)`` ops.

        The work is :meth:`get`'s, merged over the batch: counts are
        tallied as ints (exact in a float) and each kind enters the total
        in the order a merge would first add it.
        """
        values: List[Optional[bytes]] = []
        accesses = 0
        value_bytes = 0
        found = False
        for key in keys:
            partition, bucket_index, tag = self._locate(key)
            value = None
            for slot in partition.buckets[bucket_index]:
                if slot.tag == tag:
                    accesses += 1
                    value = partition._read(slot.offset, key)
                    if value is not None:
                        value_bytes += len(value)
                        found = True
                        break
            values.append(value)
        total = WorkUnits()
        if keys:
            total.add("hash_probe", float(len(keys)))
        if accesses:
            total.add("mem_random_access", float(accesses))
        if found:
            total.add("kv_value_byte", float(value_bytes))
        return values, total
