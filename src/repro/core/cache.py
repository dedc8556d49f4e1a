"""Content-addressed result cache for experiment measurements.

Operating-point searches dominate every artifact's wall-clock: each
``(function, platform)`` pair costs a 13-probe rate ladder, and the CLI
verbs historically re-ran identical measurements (``fig6`` re-runs all of
``fig4``; ``report`` used to measure Table 5's pairs from scratch).  The
measurements are pure functions of ``(profile_key, platform, fidelity,
seed)`` — every RNG substream is re-derived from the root seed and the
probe's name — so they are safe to memoize.

Keys are content hashes over a canonical tuple of primitives that always
includes :data:`CODE_VERSION`; bumping the version invalidates every
prior entry, which is how semantic changes to the measurement pipeline
are kept out of stale on-disk caches.  The cache has an in-memory layer
(always available) and an optional on-disk layer (``--cache-dir`` /
:class:`ResultCache` ``cache_dir=``) that persists results across CLI
invocations.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from ..obs import metrics
from . import trace

logger = logging.getLogger("repro.cache")

# Bump whenever measurement semantics change (models, stream naming,
# ladder shape, metrics definitions): old cached results become garbage.
# 2026.08.1: outcome metrics carry latency-attribution extras (PR 3).
# 2026.08.2: vectorized queueing kernels (closed-form Lindley, block
#   drop fixed point, searchsorted batching) change float rounding.
# 2026.08.3: cache entries double as the run-farm's manifest-referenced
#   artifact store (sha256 digests recorded per entry; corrupt disk
#   entries quarantined to *.corrupt instead of silently ignored).
# 2026.08.4: hybrid probe engine (batched ladders share per-rung draws;
#   analytic answers inside validated trust regions) and an identity-
#   validated service-time memo — results priced under the old memo
#   could reflect a stale calibration swap and must not be reused.
CODE_VERSION = "2026.08.5"

_PRIMITIVES = (str, int, float, bool, bytes, type(None))


def _canonical(part: Any) -> Any:
    """Normalize a key part to a stable, hashable representation."""
    if isinstance(part, _PRIMITIVES):
        return part
    if isinstance(part, (tuple, list)):
        return tuple(_canonical(p) for p in part)
    if isinstance(part, (set, frozenset)):
        return tuple(sorted(repr(_canonical(p)) for p in part))
    if isinstance(part, dict):
        return tuple(sorted((str(k), _canonical(v)) for k, v in part.items()))
    raise TypeError(f"unhashable cache key part: {part!r} ({type(part).__name__})")


def cache_key(*parts: Any) -> str:
    """A stable content hash of ``parts`` (always salted by CODE_VERSION)."""
    payload = repr((CODE_VERSION,) + tuple(_canonical(p) for p in parts))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def as_dict(self) -> Dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "disk_hits": self.disk_hits, "corrupt": self.corrupt}


@dataclass
class ResultCache:
    """Two-layer (memory + optional disk) content-addressed store.

    Doubles as the run farm's **artifact store**: every entry that can
    be pickled gets a sha256 digest of its serialized bytes, which
    :class:`~repro.runfarm.manifest.RunManifest` records next to the
    unit's status so a resumed run can verify what it is trusting.
    Corrupt or truncated disk entries are never silently swallowed —
    they are quarantined by renaming to ``<key>.pkl.corrupt``, counted
    (``cache.corrupt``), and treated as a miss so the unit recomputes.
    """

    cache_dir: Optional[str] = None
    _memory: Dict[str, Any] = field(default_factory=dict)
    _digests: Dict[str, str] = field(default_factory=dict)
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.cache_dir:
            os.makedirs(self.cache_dir, exist_ok=True)

    # -- lookup / store -----------------------------------------------------

    def get(self, key: str, count: bool = True) -> Tuple[bool, Any]:
        """Return ``(found, value)``; counts the lookup in stats.

        ``count=False`` exempts the lookup from the hit/miss counters —
        used for internal bookkeeping reads (hybrid trust records) so
        the CLI footer and the cache-contract tests keep counting only
        *artifact* traffic.
        """
        if key in self._memory:
            if count:
                self.stats.hits += 1
                metrics.counter(metrics.CACHE_HITS).inc()
            if trace.TRACING:
                trace.instant("cache.get", trace.CACHE, key=key[:12], hit=True)
            return True, self._memory[key]
        if self.cache_dir:
            path = self._path(key)
            if os.path.exists(path):
                try:
                    with open(path, "rb") as handle:
                        data = handle.read()
                    value = pickle.loads(data)
                except (OSError, pickle.PickleError, EOFError, ValueError,
                        AttributeError, ImportError, IndexError):
                    self._quarantine(key, path)
                else:
                    self._memory[key] = value
                    self._digests[key] = hashlib.sha256(data).hexdigest()
                    if count:
                        self.stats.hits += 1
                        self.stats.disk_hits += 1
                        metrics.counter(metrics.CACHE_HITS).inc()
                    if trace.TRACING:
                        trace.instant("cache.get", trace.CACHE,
                                      key=key[:12], hit=True, disk=True)
                    return True, value
        if count:
            self.stats.misses += 1
            metrics.counter(metrics.CACHE_MISSES).inc()
        if trace.TRACING:
            trace.instant("cache.get", trace.CACHE, key=key[:12], hit=False)
        return False, None

    def _quarantine(self, key: str, path: str) -> None:
        """Move a corrupt/truncated disk entry out of the lookup path.

        The ``.corrupt`` sibling keeps the bytes around for post-mortem
        while guaranteeing the next lookup recomputes instead of
        re-tripping on the same bad pickle.
        """
        self.stats.corrupt += 1
        metrics.counter(metrics.CACHE_CORRUPT).inc()
        logger.warning("quarantining corrupt cache entry %s -> %s.corrupt",
                       os.path.basename(path), os.path.basename(path))
        if trace.TRACING:
            trace.instant("cache.corrupt", trace.CACHE, key=key[:12])
        try:
            os.replace(path, path + ".corrupt")
        except OSError:
            # Renaming failed (e.g. racing reader already moved it);
            # removal keeps the entry from being re-read either way.
            try:
                os.unlink(path)
            except OSError:
                pass

    def put(self, key: str, value: Any) -> Optional[str]:
        """Store ``value``; returns the artifact digest (None if the
        value cannot be pickled — it then lives in memory only)."""
        if trace.TRACING:
            trace.instant("cache.put", trace.CACHE, key=key[:12])
        self._memory[key] = value
        try:
            data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        except (pickle.PickleError, AttributeError, TypeError):
            self._digests.pop(key, None)
            return None
        digest = hashlib.sha256(data).hexdigest()
        self._digests[key] = digest
        if self.cache_dir:
            path = self._path(key)
            # Atomic publish: parallel workers may race on the same key,
            # and a crashed writer must not leave a truncated pickle.
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            except OSError:
                # Disk trouble: the memory layer still has the value;
                # just don't leave a partial file behind.
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        return digest

    def get_or_compute(self, key: str, compute: Callable[[], Any]) -> Any:
        found, value = self.get(key)
        if found:
            return value
        value = compute()
        self.put(key, value)
        return value

    # -- bookkeeping --------------------------------------------------------

    def digest(self, key: str) -> Optional[str]:
        """sha256 of the entry's serialized bytes (None if unknown)."""
        return self._digests.get(key)

    def clear(self) -> None:
        self._memory.clear()
        self._digests.clear()

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, f"{key}.pkl")


# The process-wide default cache.  In-memory only unless the CLI (or a
# test) installs one with a disk layer via :func:`configure`.
_GLOBAL = ResultCache()


def get_cache() -> ResultCache:
    return _GLOBAL


def configure(cache: ResultCache) -> ResultCache:
    """Install ``cache`` as the process-wide default; returns it."""
    global _GLOBAL
    _GLOBAL = cache
    return cache
