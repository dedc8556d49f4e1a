"""Sparse device buffers against the eager buffers they replaced.

The fixture builders' two big buffers allocate what they write, not
their nominal capacity:

* ``RamDisk`` keeps a block map instead of a ``bytearray(capacity)``
  (oracle: the zero-filled disk, same reads, same errors);
* ``_Partition`` grows its MICA log to the high-water mark instead of
  preallocating ``log_bytes`` (oracle: the preallocated partition, same
  ``get`` results, head, wrap flag, bucket slots and evictions).
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions.mica import MicaStore, _Partition
from repro.functions.storage import RamDisk, StorageError


# ---------------------------------------------------------------------------
# RamDisk
# ---------------------------------------------------------------------------


class ZeroFilledDisk:
    """The RamDisk as it was: one preallocated ``bytearray``."""

    def __init__(self, capacity_bytes, block_bytes=4096):
        if capacity_bytes % block_bytes:
            raise ValueError("capacity must be a multiple of the block size")
        self.block_bytes = block_bytes
        self.block_count = capacity_bytes // block_bytes
        self._data = bytearray(capacity_bytes)

    def read(self, lba, blocks):
        self._check(lba, blocks)
        start = lba * self.block_bytes
        return bytes(self._data[start:start + blocks * self.block_bytes])

    def write(self, lba, payload):
        if len(payload) % self.block_bytes:
            raise StorageError("payload not block aligned")
        blocks = len(payload) // self.block_bytes
        self._check(lba, blocks)
        start = lba * self.block_bytes
        self._data[start:start + len(payload)] = payload

    def _check(self, lba, blocks):
        if lba < 0 or blocks < 1 or lba + blocks > self.block_count:
            raise StorageError(f"I/O out of range: lba={lba} blocks={blocks}")


BLOCK = 8
BLOCKS = 12

# lba and lengths reach a little past both ends, so range errors happen.
DISK_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(-1, BLOCKS),
                  st.binary(min_size=1, max_size=4 * BLOCK + 1),
                  st.sampled_from([bytes, bytearray, memoryview])),
        st.tuples(st.just("read"), st.integers(-1, BLOCKS),
                  st.integers(0, 5)),
    ),
    max_size=40)


def outcome(call):
    try:
        return call()
    except StorageError:
        return StorageError


class TestSparseRamDisk:
    @given(DISK_OPS)
    @settings(max_examples=300, deadline=None)
    def test_matches_zero_filled_disk(self, ops):
        sparse, eager = RamDisk(BLOCK * BLOCKS, BLOCK), ZeroFilledDisk(BLOCK * BLOCKS, BLOCK)
        for op in ops:
            if op[0] == "write":
                _, lba, data, kind = op
                # Trimmed to whole blocks, unless one byte is left over or
                # nothing would be: both disks must refuse those writes.
                if len(data) % BLOCK != 1:
                    data = data[: len(data) - len(data) % BLOCK] or data
                payload = bytearray(data) if kind is not bytes else data
                buffer = memoryview(payload) if kind is memoryview else payload
                assert (outcome(lambda: sparse.write(lba, buffer))
                        == outcome(lambda: eager.write(lba, buffer)))
                if isinstance(payload, bytearray) and payload:
                    payload[0] ^= 0xFF  # the caller reuses its buffer
            else:
                _, lba, blocks = op
                assert (outcome(lambda: sparse.read(lba, blocks))
                        == outcome(lambda: eager.read(lba, blocks)))
        assert sparse.read(0, BLOCKS) == eager.read(0, BLOCKS)
        assert pickle.loads(pickle.dumps(sparse)).read(0, BLOCKS) == eager.read(0, BLOCKS)

    def test_mutating_a_written_bytearray_leaves_the_disk_alone(self):
        disk = RamDisk(BLOCK * BLOCKS, BLOCK)
        payload = bytearray(b"x" * (2 * BLOCK))
        disk.write(0, payload)
        payload[:] = b"y" * (2 * BLOCK)
        assert disk.read(0, 2) == b"x" * (2 * BLOCK)

    def test_geometry_is_nominal(self):
        disk = RamDisk(64 << 20)
        assert disk.block_count == (64 << 20) // 4096
        assert disk.read(disk.block_count - 1, 1) == bytes(4096)
        with pytest.raises(StorageError):
            disk.read(disk.block_count, 1)


# ---------------------------------------------------------------------------
# MICA partition log
# ---------------------------------------------------------------------------


class PreallocatedPartition:
    """The MICA partition as it was: a zero-filled ``log_bytes`` ring."""

    def __init__(self, buckets, log_bytes):
        self.buckets = [[] for _ in range(buckets)]
        self.log = bytearray(log_bytes)
        self.head = 0
        self.wrapped = False

    def _append(self, key, value):
        record = (len(key).to_bytes(2, "little") + len(value).to_bytes(4, "little")
                  + key + value)
        if len(record) > len(self.log):
            raise ValueError("record larger than partition log")
        if self.head + len(record) > len(self.log):
            self.head = 0
            self.wrapped = True
        offset = self.head
        self.log[offset:offset + len(record)] = record
        self.head += len(record)
        return offset

    def _read(self, offset, key):
        key_length = int.from_bytes(self.log[offset:offset + 2], "little")
        value_length = int.from_bytes(self.log[offset + 2:offset + 6], "little")
        start = offset + 6
        stored_key = bytes(self.log[start:start + key_length])
        if stored_key != key:
            return None
        start += key_length
        return bytes(self.log[start:start + value_length])


def store_pair(partitions, buckets, log_bytes):
    lazy = MicaStore(partitions, buckets, log_bytes)
    eager = MicaStore(partitions, buckets, log_bytes)
    eager.partitions = [PreallocatedPartition(buckets, log_bytes)
                        for _ in range(partitions)]
    return lazy, eager


def partition_state(p):
    return (p.head, p.wrapped,
            [[(slot.tag, slot.offset) for slot in bucket] for bucket in p.buckets])


def put_outcome(store, key, value):
    try:
        return store.put(key, value)
    except ValueError:
        return ValueError


def small_bytes(max_size):
    # Mostly tiny byte values: a stale slot then parses small garbage
    # lengths, which land near the high-water mark and can match a key.
    return st.lists(st.sampled_from([0, 1, 2, 3, 120]), max_size=max_size).map(bytes)


# Few short keys, some ending in zero bytes, and values of mixed sizes:
# with logs this small, wraps and stale slots parsing garbage lengths
# past the high-water mark both happen.
KEYS = small_bytes(3)
MICA_OPS = st.lists(
    st.one_of(st.tuples(st.just("put"), KEYS, small_bytes(40)),
              st.tuples(st.just("get"), KEYS)),
    max_size=80)


class TestLazyMicaLog:
    @given(MICA_OPS, st.sampled_from([24, 48, 97]), st.sampled_from([1, 2]),
           st.sampled_from([1, 3]))
    @settings(max_examples=400, deadline=None)
    def test_matches_preallocated_log(self, ops, log_bytes, partitions, buckets):
        lazy, eager = store_pair(partitions, buckets, log_bytes)
        seen = set()
        for op in ops:
            seen.add(op[1])
            if op[0] == "put":
                assert put_outcome(lazy, op[1], op[2]) == put_outcome(eager, op[1], op[2])
            else:
                assert lazy.get(op[1]) == eager.get(op[1])
        for key in sorted(seen) + [b"", b"\x00", b"\x00\x00"]:
            assert lazy.get(key) == eager.get(key)
        assert lazy.evictions == eager.evictions
        for p, q in zip(lazy.partitions, eager.partitions):
            assert partition_state(p) == partition_state(q)
            assert len(p.log) <= log_bytes
            assert q.log == p.log + bytes(log_bytes - len(p.log))

    @pytest.mark.parametrize("log_bytes", [15, 16, 64])
    @pytest.mark.parametrize("key", [b"", b"x", b"x\x00", b"x\x00\x00"])
    def test_garbage_length_past_high_water_mark(self, log_bytes, key):
        # One 14-byte record whose value holds a fake header at offset 7:
        # key length 3, value length 0, so its key runs 2 bytes past the
        # high-water mark (and past log_bytes when that is 15).
        value = b"\x03\x00" + b"\x00\x00\x00\x00" + b"x"
        lazy, eager = _Partition(1, log_bytes), PreallocatedPartition(1, log_bytes)
        assert lazy._append(b"a", value) == eager._append(b"a", value) == 0
        assert len(lazy.log) == 14
        assert lazy._read(7, key) == eager._read(7, key)

    def test_log_holds_only_what_was_written(self):
        store = MicaStore(partitions=2, log_bytes_per_partition=1 << 22)
        assert [len(p.log) for p in store.partitions] == [0, 0]
        store.put(b"k", b"v" * 10)
        assert sorted(len(p.log) for p in store.partitions) == [0, 6 + 1 + 10]
