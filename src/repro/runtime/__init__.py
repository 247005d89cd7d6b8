"""Shared worker-pool execution engine (the parallel runtime).

The executor half of the compile/execute split is single-threaded by
construction — one arena, one in-flight request.  This package adds
thread-level parallelism without giving up either invariant the
executor is built on:

- **zero steady-state allocation** — every worker lane executes out of
  the buffers of the same :class:`~repro.inference.executable.
  BufferArena`, on its own disjoint sample slice, and
- **bit-identical results** — a sharded site forward reproduces the
  serial result exactly (the concurrent-determinism suite and
  ``benchmarks/bench_parallel.py`` gate max deviation at exactly 0.0).

Layout:

- :mod:`repro.runtime.pool` — one bounded :class:`WorkerPool` per
  process (``REPRO_NUM_THREADS`` / ``--threads``, default
  ``min(cores, 8)``); every executable, session, and fleet replica
  shares it, so fleet-scale deployments cannot explode thread counts.
- :mod:`repro.runtime.engine` — batch-shard planning (every shard
  >= 2 samples).
"""

from repro.runtime.pool import (
    MAX_WORKERS,
    WorkerPool,
    default_threads,
    get_pool,
    pool_stats,
    resolve_threads,
)
from repro.runtime.engine import plan_batch_shards

__all__ = [
    "MAX_WORKERS",
    "WorkerPool",
    "default_threads",
    "get_pool",
    "pool_stats",
    "resolve_threads",
    "plan_batch_shards",
]
