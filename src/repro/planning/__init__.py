"""Planning-cache subsystem: memoization on first use, in memory.

:mod:`repro.planning.cache` holds the core :class:`PlanCache`
(thread-safe bounded LRU keyed on content fingerprints) and the
process-wide registry behind :func:`cache_stats` and
:func:`clear_plan_caches`.  Every planner computes a value on first use
and memoizes it there; nothing is written to or read from disk.
:mod:`repro.planning.warmup` adds the deploy path's backend warm-up
(:func:`warm_model_backends`).
"""

from repro.planning.cache import (
    CacheStats,
    PlanCache,
    all_caches,
    cache_stats,
    clear_plan_caches,
    get_cache,
    register_cache,
)
from repro.planning.warmup import warm_backends, warm_model_backends

__all__ = [
    "CacheStats",
    "PlanCache",
    "all_caches",
    "cache_stats",
    "clear_plan_caches",
    "get_cache",
    "register_cache",
    "warm_backends",
    "warm_model_backends",
]
