"""Batch-shard planning for the per-site parallel forward.

``Executable.run`` parallelism happens *inside* each compiled site's
forward (the inter-site topology — residuals, pooling, batch-norm —
stays on the caller thread): a parallel site splits the request's
samples into contiguous shards, runs its whole stage list on each
shard in a worker lane, joins, and returns the same arena buffer the
serial path returns.  Shards write disjoint sample slices of the
site's buffers and of the shared stage scratch, so they add no arena
bytes, and every stage computes each sample independently of the
others (the stacked ``matmul`` runs one GEMM per sample), so a sharded
forward is bit-identical to a serial one.

Every shard holds at least :data:`MIN_BATCH_SHARD` samples, so a batch
too small for two such shards runs serially.

The per-site parallel/serial decision is *not* made here — the perf
model makes it at compile time (:mod:`repro.perfmodel.parallel`) and
:func:`repro.inference.executable.compile_plan` records it on the
plan; this module only plans the shards.
"""

from __future__ import annotations

from typing import List, Tuple

#: Minimum samples per batch shard; see the module docstring.
MIN_BATCH_SHARD = 2


def plan_batch_shards(
    batch: int, threads: int, min_shard: int = MIN_BATCH_SHARD,
) -> List[Tuple[int, int]]:
    """Split ``[0, batch)`` into at most ``threads`` contiguous shards.

    Every shard has at least ``min_shard`` samples; returns fewer than
    two shards (meaning: batch sharding is off) when the batch cannot
    support two such shards.
    """
    if threads < 2 or batch < 2 * min_shard:
        return []
    n = min(threads, batch // min_shard)
    base, extra = divmod(batch, n)
    shards: List[Tuple[int, int]] = []
    lo = 0
    for i in range(n):
        hi = lo + base + (1 if i < extra else 0)
        shards.append((lo, hi))
        lo = hi
    return shards
