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

- **Content-fingerprint keys.**  Keys are hashable tuples that include
  ``DeviceSpec.fingerprint()`` — a hash over *every* hardware
  parameter — never the display name.
- **Thread safety.**  All operations are lock-guarded; concurrent
  deployments plan against the same caches.
- **Bounded LRU.**  Entries are evicted least-recently-used once
  ``maxsize`` is exceeded, with hit/miss/eviction counters exposed via
  :meth:`PlanCache.stats`.

Caches live in memory only: each process plans on first use.  They
auto-register in a process-wide registry so :func:`cache_stats`,
:func:`clear_plan_caches` and tests can reach all of them without
importing each planner module explicitly.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

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
    """A thread-safe, bounded-LRU, in-memory memo table.

    Keys must be hashable (in practice tuples of primitives that carry
    the device fingerprint); values must never be ``None`` (``None`` is
    the miss sentinel).
    """

    def __init__(
        self,
        name: str,
        maxsize: int = 1024,
        register: bool = True,
    ) -> None:
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.name = name
        self.maxsize = maxsize
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
    """Clear every registered cache (tests, benchmarks)."""
    for cache in all_caches():
        cache.clear()
