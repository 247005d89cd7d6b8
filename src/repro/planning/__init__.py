"""Planning-cache subsystem: memoization on first use, persistence.

:mod:`repro.planning.cache` holds the core :class:`PlanCache`
(thread-safe bounded LRU with optional versioned-JSON persistence) and
the process-wide registry the CLI operates on.  Every planner computes
a value on first use and memoizes it there.  :mod:`repro.planning.warmup`
adds the deploy path's backend warm-up (:func:`warm_model_backends`)
and the batched :func:`plan_many` API.

``warmup`` is re-exported lazily: it imports the planner modules
(which themselves construct caches from this package), so an eager
import here would be circular.
"""

from repro.planning.cache import (
    SCHEMA_VERSION,
    CacheStats,
    PlanCache,
    all_caches,
    cache_stats,
    clear_plan_caches,
    default_cache_dir,
    get_cache,
    load_plan_caches,
    register_cache,
    save_plan_caches,
)

_WARMUP_EXPORTS = (
    "plan_key",
    "plan_many",
    "warm_backends",
    "warm_model_backends",
)


def __getattr__(name):
    if name in _WARMUP_EXPORTS:
        from repro.planning import warmup

        return getattr(warmup, name)
    raise AttributeError(f"module 'repro.planning' has no attribute {name!r}")


__all__ = [
    "SCHEMA_VERSION",
    "CacheStats",
    "PlanCache",
    "all_caches",
    "cache_stats",
    "clear_plan_caches",
    "default_cache_dir",
    "get_cache",
    "load_plan_caches",
    "register_cache",
    "save_plan_caches",
    "plan_key",
    "plan_many",
    "warm_backends",
    "warm_model_backends",
]
