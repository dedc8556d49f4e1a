"""Redis-like in-memory key-value store (the Redis benchmark, §3.4).

A functional TCP-fronted KVS: RESP-style command encoding, a hash-table
store with optional TTLs, and YCSB-style GET/SET handling.  Work units per
operation: request parse + dispatch (``kv_op``), one hash probe, and
value-byte movement — the stack cost of the TCP round trip is added by
the experiment layer (it dominates on the SNIC CPU, Key Observation 1).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from ..core.work import WorkUnits


class ProtocolError(ValueError):
    """Malformed RESP-ish command."""


def encode_command(*parts: bytes) -> bytes:
    """RESP array-of-bulk-strings encoding."""
    out = bytearray(b"*%d\r\n" % len(parts))
    for part in parts:
        out += b"$%d\r\n%s\r\n" % (len(part), part)
    return bytes(out)


def decode_command(payload: bytes) -> List[bytes]:
    """Decode one RESP command; raises ProtocolError when malformed."""
    if not payload.startswith(b"*"):
        raise ProtocolError("expected array header")
    try:
        header_end = payload.index(b"\r\n")
        count = int(payload[1:header_end])
        parts: List[bytes] = []
        cursor = header_end + 2
        for _ in range(count):
            if payload[cursor : cursor + 1] != b"$":
                raise ProtocolError("expected bulk string header")
            length_end = payload.index(b"\r\n", cursor)
            length = int(payload[cursor + 1 : length_end])
            start = length_end + 2
            end = start + length
            if payload[end : end + 2] != b"\r\n":
                raise ProtocolError("missing bulk string terminator")
            parts.append(payload[start:end])
            cursor = end + 2
        return parts
    except (ValueError, IndexError) as exc:
        raise ProtocolError(str(exc)) from exc


@dataclass
class StoreStats:
    gets: int = 0
    sets: int = 0
    deletes: int = 0
    hits: int = 0
    misses: int = 0
    expired: int = 0
    evictions: int = 0


_ENTRY_OVERHEAD = 64  # per-entry object overhead approximation, bytes


@dataclass(slots=True)
class _Entry:
    value: bytes
    expires_at: Optional[float] = None


class KeyValueStore:
    """The server-side store; time is injected for TTL determinism.

    ``max_memory_bytes`` enables Redis's ``maxmemory`` behaviour with an
    allkeys-lru policy: writes that would exceed the budget evict the
    least-recently-used entries first.
    """

    def __init__(self, max_memory_bytes: Optional[int] = None):
        self._data: "OrderedDict[bytes, _Entry]" = OrderedDict()
        self.stats = StoreStats()
        self.max_memory_bytes = max_memory_bytes
        self._memory_used = 0

    def __len__(self) -> int:
        return len(self._data)

    def _entry_size(self, key: bytes, value: bytes) -> int:
        return len(key) + len(value) + _ENTRY_OVERHEAD

    def _evict_for(self, needed: int) -> None:
        if self.max_memory_bytes is None:
            return
        while self._memory_used + needed > self.max_memory_bytes and self._data:
            old_key, old_entry = self._data.popitem(last=False)  # LRU end
            self._memory_used -= self._entry_size(old_key, old_entry.value)
            self.stats.evictions += 1

    def set(self, key: bytes, value: bytes, now: float = 0.0,
            ttl: Optional[float] = None) -> WorkUnits:
        self.stats.sets += 1
        expires = now + ttl if ttl is not None else None
        previous = self._data.pop(key, None)
        if previous is not None:
            self._memory_used -= self._entry_size(key, previous.value)
        self._evict_for(self._entry_size(key, value))
        self._data[key] = _Entry(value, expires)
        self._memory_used += self._entry_size(key, value)
        return WorkUnits(
            {"kv_op": 1.0, "hash_probe": 1.0, "kv_value_byte": float(len(value))}
        )

    def load(self, pairs: Iterable[Tuple[bytes, bytes]]) -> int:
        """Bulk :meth:`set` of ``(key, value)`` pairs with no TTL (a YCSB
        load phase); returns how many were written.

        Leaves exactly the entries, LRU order, stats and memory accounting
        that one ``set`` per pair would, without building a WorkUnits per
        pair.  A store with a ``maxmemory`` budget takes the per-pair path,
        since every write may evict.
        """
        if self.max_memory_bytes is not None:
            count = 0
            for key, value in pairs:
                self.set(key, value)
                count += 1
            return count
        data = self._data
        memory = self._memory_used
        count = 0
        for key, value in pairs:
            if key in data:
                memory -= self._entry_size(key, data.pop(key).value)
            data[key] = _Entry(value)
            memory += len(key) + len(value) + _ENTRY_OVERHEAD  # _entry_size
            count += 1
        self._memory_used = memory
        self.stats.sets += count
        return count

    def get(self, key: bytes, now: float = 0.0) -> Tuple[Optional[bytes], WorkUnits]:
        self.stats.gets += 1
        work = WorkUnits({"kv_op": 1.0, "hash_probe": 1.0})
        entry = self._data.get(key)
        if entry is None:
            self.stats.misses += 1
            return None, work
        if entry.expires_at is not None and now >= entry.expires_at:
            del self._data[key]
            self._memory_used -= self._entry_size(key, entry.value)
            self.stats.expired += 1
            self.stats.misses += 1
            return None, work
        self.stats.hits += 1
        self._data.move_to_end(key)  # LRU touch
        work.add("kv_value_byte", float(len(entry.value)))
        return entry.value, work

    def delete(self, key: bytes) -> Tuple[bool, WorkUnits]:
        self.stats.deletes += 1
        work = WorkUnits({"kv_op": 1.0, "hash_probe": 1.0})
        entry = self._data.pop(key, None)
        if entry is not None:
            self._memory_used -= self._entry_size(key, entry.value)
            return True, work
        return False, work

    def execute(self, command: bytes, now: float = 0.0) -> Tuple[bytes, WorkUnits]:
        """Process one encoded command, return (response, work)."""
        parts = decode_command(command)
        if not parts:
            raise ProtocolError("empty command")
        verb = parts[0].upper()
        if verb == b"GET" and len(parts) == 2:
            value, work = self.get(parts[1], now)
            response = b"$-1\r\n" if value is None else b"$%d\r\n%s\r\n" % (len(value), value)
            return response, work
        if verb == b"SET" and len(parts) in (3, 5):
            ttl = None
            if len(parts) == 5:
                if parts[3].upper() != b"EX":
                    raise ProtocolError("unsupported SET option")
                ttl = float(parts[4])
            work = self.set(parts[1], parts[2], now, ttl)
            return b"+OK\r\n", work
        if verb == b"DEL" and len(parts) == 2:
            removed, work = self.delete(parts[1])
            return b":%d\r\n" % int(removed), work
        if verb == b"INCR" and len(parts) == 2:
            value, work = self.get(parts[1], now)
            try:
                counter = int(value) if value is not None else 0
            except ValueError:
                return b"-ERR value is not an integer\r\n", work
            counter += 1
            work.merge(self.set(parts[1], b"%d" % counter, now))
            return b":%d\r\n" % counter, work
        if verb == b"APPEND" and len(parts) == 3:
            value, work = self.get(parts[1], now)
            combined = (value or b"") + parts[2]
            work.merge(self.set(parts[1], combined, now))
            return b":%d\r\n" % len(combined), work
        if verb == b"MGET" and len(parts) >= 2:
            work = WorkUnits()
            chunks = [b"*%d\r\n" % (len(parts) - 1)]
            for key in parts[1:]:
                value, item_work = self.get(key, now)
                work.merge(item_work)
                chunks.append(
                    b"$-1\r\n" if value is None
                    else b"$%d\r\n%s\r\n" % (len(value), value)
                )
            return b"".join(chunks), work
        if verb == b"EXPIRE" and len(parts) == 3:
            work = WorkUnits({"kv_op": 1.0, "hash_probe": 1.0})
            entry = self._data.get(parts[1])
            if entry is None:
                return b":0\r\n", work
            entry.expires_at = now + float(parts[2])
            return b":1\r\n", work
        if verb == b"TTL" and len(parts) == 2:
            work = WorkUnits({"kv_op": 1.0, "hash_probe": 1.0})
            entry = self._data.get(parts[1])
            if entry is None:
                return b":-2\r\n", work
            if entry.expires_at is None:
                return b":-1\r\n", work
            return b":%d\r\n" % max(0, int(entry.expires_at - now)), work
        raise ProtocolError(f"unsupported command {verb!r}")
