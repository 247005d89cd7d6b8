"""The unified planning-cache subsystem.

Every planner in the repository — tiling selection (Sec. 5.5), the
performance table T (Sec. 6), TVM tuning, the fused backend's tilings
and latencies, the per-format candidate lists of Algorithm 1 — is
deterministic per (shape, device), so each computes a value on first
use and memoizes it in a :class:`PlanCache`.  Nothing computes these
values ahead of time.  Before this module each planner kept its own
module-level dict keyed on ``device.name``, which made two
:class:`~repro.gpusim.device.DeviceSpec` instances that share a name
but differ in hardware parameters (a device sweep, a user-tweaked spec)
silently alias each other's entries.  A :class:`PlanCache` fixes that
by construction:

- **Content-fingerprint keys.**  Keys are tuples of primitives that
  include ``DeviceSpec.fingerprint()`` — a hash over *every* hardware
  parameter — never the display name.
- **Thread safety.**  All operations are lock-guarded; concurrent
  deployments plan against the same caches.
- **Bounded LRU.**  Entries are evicted least-recently-used once
  ``maxsize`` is exceeded, with hit/miss/eviction counters exposed via
  :meth:`PlanCache.stats`.
- **Optional disk persistence.**  Caches constructed with
  ``encode``/``decode`` codecs round-trip through versioned JSON files
  (TVM-style tuning logs: one-shot searches survive process restarts).
  A schema or payload-version mismatch invalidates the file
  gracefully — the loader simply starts cold.

Caches auto-register in a process-wide registry so the CLI
(``repro cache stats|clear|warm``) and tests can reach all of them
without importing each planner module explicitly.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

# Bump when the on-disk envelope (not a cache's payload) changes shape.
SCHEMA_VERSION = 1

Key = Tuple[Any, ...]


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    name: str
    size: int
    maxsize: int
    hits: int
    misses: int
    evictions: int

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "size": self.size,
            "maxsize": self.maxsize,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class PlanCache:
    """A thread-safe, bounded-LRU, optionally persistent memo table.

    Keys must be tuples of JSON-representable primitives (ints,
    floats, strings, nested tuples); values must never be ``None``
    (``None`` is the miss sentinel).  Persistence requires ``encode``
    (value -> JSON-serializable) and ``decode`` (its inverse); caches
    without codecs are memory-only.
    """

    def __init__(
        self,
        name: str,
        maxsize: int = 1024,
        payload_version: int = 1,
        encode: Optional[Callable[[Any], Any]] = None,
        decode: Optional[Callable[[Any], Any]] = None,
        register: bool = True,
    ) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
        self.payload_version = payload_version
        self._encode = encode
        self._decode = decode
        self._lock = threading.RLock()
        self._data: "OrderedDict[Key, Any]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        if register:
            register_cache(self)

    # ------------------------------------------------------------------
    # Core memo operations
    # ------------------------------------------------------------------

    def get(self, key: Key, default: Any = None) -> Any:
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self._misses += 1
                return default
            self._data.move_to_end(key)
            self._hits += 1
            return value

    def put(self, key: Key, value: Any) -> Any:
        """Insert ``value`` under ``key`` and return the cached value.

        Put-if-absent: when two threads race to build the same entry,
        the first insertion wins and both get the same object back —
        callers can rely on identity for repeated lookups.
        """
        if value is None:
            raise ValueError("PlanCache cannot store None values")
        with self._lock:
            existing = self._data.get(key)
            if existing is not None:
                self._data.move_to_end(key)
                return existing
            self._data[key] = value
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1
            return value

    def replace(self, key: Key, value: Any) -> Any:
        """Insert ``value`` under ``key``, overwriting any existing entry.

        :meth:`put` is put-if-absent — correct for deterministic
        planners, where every builder computes the same value.  Caches
        holding *measured* state (hardware calibration factors) need
        last-write-wins instead: a recalibration legitimately produces
        a different value for an existing key.
        """
        if value is None:
            raise ValueError("PlanCache cannot store None values")
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1
            return value

    def get_or_build(self, key: Key, build: Callable[[], Any]) -> Any:
        """Return the cached value, building (outside the lock) on miss.

        Concurrent misses on the same key may build the value more than
        once — planners are deterministic, so duplicate work is safe
        and only the first result is kept.
        """
        cached = self.get(key)
        if cached is not None:
            return cached
        return self.put(key, build())

    def peek(self, key: Key) -> Any:
        """Like :meth:`get` but touches neither recency nor counters."""
        with self._lock:
            return self._data.get(key)

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._data.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def keys(self) -> List[Key]:
        with self._lock:
            return list(self._data.keys())

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Key) -> bool:
        with self._lock:
            return key in self._data

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self.name,
                size=len(self._data),
                maxsize=self.maxsize,
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )

    # ------------------------------------------------------------------
    # Disk persistence
    # ------------------------------------------------------------------

    @property
    def persistent(self) -> bool:
        return self._encode is not None and self._decode is not None

    def file_path(self, cache_dir: "os.PathLike[str] | str") -> Path:
        return Path(cache_dir) / f"{self.name}.json"

    def save(self, cache_dir: "os.PathLike[str] | str") -> Path:
        """Write all entries to ``<cache_dir>/<name>.json`` atomically."""
        if not self.persistent:
            raise RuntimeError(
                f"cache {self.name!r} has no encode/decode codec; "
                "it is memory-only"
            )
        with self._lock:
            items = list(self._data.items())
        doc = {
            "schema": SCHEMA_VERSION,
            "cache": self.name,
            "payload_version": self.payload_version,
            "entries": [[list(k), self._encode(v)] for k, v in items],
        }
        path = self.file_path(cache_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(doc), encoding="utf-8")
        os.replace(tmp, path)
        return path

    def load(self, cache_dir: "os.PathLike[str] | str") -> int:
        """Merge entries from disk; returns how many were loaded.

        Any mismatch — missing file, corrupt JSON, wrong schema or
        payload version, codec failure — invalidates the file
        gracefully: the cache is left as it was and 0 is returned.
        In-memory entries win over persisted ones on key collisions.
        """
        if not self.persistent:
            raise RuntimeError(
                f"cache {self.name!r} has no encode/decode codec; "
                "it is memory-only"
            )
        path = self.file_path(cache_dir)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return 0
        if (
            not isinstance(doc, dict)
            or doc.get("schema") != SCHEMA_VERSION
            or doc.get("cache") != self.name
            or doc.get("payload_version") != self.payload_version
        ):
            return 0
        try:
            decoded = [
                (_as_key(raw_key), self._decode(raw_value))
                for raw_key, raw_value in doc.get("entries", [])
            ]
        except Exception:
            # A stale payload the codec no longer understands.
            return 0
        loaded = 0
        with self._lock:
            for key, value in decoded:
                if key in self._data or value is None:
                    continue
                self._data[key] = value
                loaded += 1
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)
                self._evictions += 1
        return loaded


def _as_key(obj: Any) -> Any:
    """Recursively rebuild tuple keys from their JSON list form."""
    if isinstance(obj, list):
        return tuple(_as_key(item) for item in obj)
    return obj


# ----------------------------------------------------------------------
# Process-wide registry
# ----------------------------------------------------------------------

_REGISTRY: "OrderedDict[str, PlanCache]" = OrderedDict()
_REGISTRY_LOCK = threading.Lock()


def register_cache(cache: PlanCache) -> PlanCache:
    """Register (or replace) a cache under its name."""
    with _REGISTRY_LOCK:
        _REGISTRY[cache.name] = cache
    return cache


def get_cache(name: str) -> PlanCache:
    with _REGISTRY_LOCK:
        if name not in _REGISTRY:
            raise KeyError(
                f"no plan cache named {name!r}; "
                f"registered: {sorted(_REGISTRY)}"
            )
        return _REGISTRY[name]


def all_caches() -> List[PlanCache]:
    with _REGISTRY_LOCK:
        return list(_REGISTRY.values())


def cache_stats() -> Dict[str, CacheStats]:
    """Stats snapshot for every registered cache."""
    return {c.name: c.stats() for c in all_caches()}


def clear_plan_caches() -> None:
    """Clear every registered cache (tests, benchmarks, CLI)."""
    for cache in all_caches():
        cache.clear()


def save_plan_caches(cache_dir: "os.PathLike[str] | str") -> Dict[str, int]:
    """Persist every codec-equipped cache; returns ``{name: n_entries}``."""
    saved: Dict[str, int] = {}
    for cache in all_caches():
        if cache.persistent:
            cache.save(cache_dir)
            saved[cache.name] = len(cache)
    return saved


def load_plan_caches(cache_dir: "os.PathLike[str] | str") -> Dict[str, int]:
    """Load every codec-equipped cache; returns ``{name: n_loaded}``."""
    loaded: Dict[str, int] = {}
    for cache in all_caches():
        if cache.persistent:
            loaded[cache.name] = cache.load(cache_dir)
    return loaded


def default_cache_dir() -> str:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro-tdc``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-tdc")
