"""Rank selection for concurrent convolutions (the paper's future work).

Sec. 8 of the paper: "we plan to extend our work to cover wide CNNs
such as GoogleNet and NasNet by developing a scheme that can determine
the ranks for multiple concurrent convolutions and minimize the
latency."  This module implements that extension on top of the
existing machinery:

- A :class:`ConcurrentGroup` is a set of conv branches that execute
  simultaneously (an Inception-style module): the group's latency is
  driven by resource sharing, not by a simple sum.
- :func:`concurrent_latency` models stream-parallel execution on one
  device: compute/memory demands add (the SMs are shared) while kernel
  launch overheads overlap, so the group costs
  ``max over branches of per-branch latency-without-launch, bounded
  below by the aggregate work at device peak`` plus one launch per
  concurrent stream batch.
- :func:`select_ranks_concurrent` greedily allocates a shared FLOPs
  budget across branches: at each step it relaxes (increases) the rank
  pair whose increase buys the most accuracy proxy (rank mass) per
  unit of *group* latency increase — directly minimizing the group's
  concurrent latency rather than each branch's in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codesign.flops import conv_flops
from repro.codesign.rank_selection import LayerShape
from repro.codesign.table import build_performance_table
from repro.gpusim.device import DeviceSpec
from repro.tensor.formats import get_format
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class ConcurrentGroup:
    """Conv branches that run simultaneously (one Inception module)."""

    name: str
    branches: Tuple[LayerShape, ...]

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("a concurrent group needs at least one branch")

    def total_flops(self) -> int:
        return sum(
            conv_flops(b.c, b.n, b.h, b.w, b.r, b.s) for b in self.branches
        )


def concurrent_latency(
    branch_latencies: Sequence[float],
    branch_flops: Sequence[float],
    device: DeviceSpec,
) -> float:
    """Latency of branches issued on concurrent streams.

    Two bounds govern stream-parallel execution:

    - the *critical branch*: the group cannot finish before its
      slowest member (its latency already includes one launch);
    - the *aggregate throughput*: all branches share the same SMs, so
      the group cannot beat total work at device peak plus one launch.

    The model returns the max of the two bounds — exact for both the
    one-dominant-branch regime and the many-equal-branches regime.
    """
    if len(branch_latencies) != len(branch_flops):
        raise ValueError("latency/flops lists must align")
    if not branch_latencies:
        raise ValueError("need at least one branch")
    critical = max(branch_latencies)
    aggregate = (
        sum(branch_flops) / device.peak_flops + device.kernel_launch_overhead
    )
    return max(critical, aggregate)


@dataclass
class ConcurrentDecision:
    """Chosen ranks for every branch of one group."""

    group: ConcurrentGroup
    ranks: List[Tuple[int, int]]            # (d1, d2) per branch
    branch_latencies: List[float]
    group_latency: float
    total_tucker_flops: int

    @property
    def achieved_reduction(self) -> float:
        dense = self.group.total_flops()
        return 1.0 - self.total_tucker_flops / dense


def _branch_entry(branch: LayerShape, d1: int, d2: int, device: DeviceSpec,
                  rank_step: int, method: str):
    table = build_performance_table(
        branch.c, branch.n, branch.h, branch.w, device,
        r=branch.r, s=branch.s, rank_step=rank_step, method=method,
    )
    return table.lookup(d1, d2)


def select_ranks_concurrent(
    group: ConcurrentGroup,
    device: DeviceSpec,
    budget: float,
    rank_step: int = 32,
    method: str = "model",
) -> ConcurrentDecision:
    """Jointly choose ranks for all branches of a concurrent group.

    Greedy rank relaxation: start every branch at its smallest rank
    pair, then repeatedly grant a rank increment to the branch where
    it costs the least *group* latency per unit of added rank mass,
    while the shared FLOPs ceiling holds.  Because the group latency
    is a max/aggregate, increments on non-critical branches are often
    free — exactly the concurrency-aware behaviour the paper's future
    work calls for.
    """
    if not 0.0 < budget < 1.0:
        raise ValueError(f"budget must be in (0, 1), got {budget}")
    check_positive_int("rank_step", rank_step)

    tables = [
        build_performance_table(
            b.c, b.n, b.h, b.w, device, r=b.r, s=b.s,
            rank_step=rank_step, method=method,
        )
        for b in group.branches
    ]
    for b, t in zip(group.branches, tables):
        if not t.entries:
            raise ValueError(
                f"branch {b.name} of group {group.name} is not "
                "decomposable (an extent-1 mode has no rank candidates)"
            )
    # Sorted rank grids per branch.
    grids: List[List[Tuple[int, int]]] = []
    for t in tables:
        pairs = sorted({(e.d1, e.d2) for e in t.entries})
        grids.append(pairs)
    ceiling = (1.0 - budget) * group.total_flops()

    # Start from the minimum-FLOPs pair per branch.
    def pair_flops(i: int, pair: Tuple[int, int]) -> int:
        b = group.branches[i]
        return get_format("tucker").flops(b.c, b.n, b.h, b.w, pair, b.r, b.s)

    current = [
        min(g, key=lambda p: pair_flops(i, p)) for i, g in enumerate(grids)
    ]
    total = sum(pair_flops(i, p) for i, p in enumerate(current))
    if total > ceiling:
        raise ValueError(
            f"budget {budget:.0%} unreachable even at minimum ranks for "
            f"group {group.name}"
        )

    def group_lat(pairs: Sequence[Tuple[int, int]]) -> Tuple[float, List[float]]:
        lats, flops = [], []
        for i, (d1, d2) in enumerate(pairs):
            entry = tables[i].lookup(d1, d2)
            lats.append(entry.total_latency)
            flops.append(pair_flops(i, (d1, d2)))
        return concurrent_latency(lats, flops, device), lats

    improved = True
    while improved:
        improved = False
        base_lat, _ = group_lat(current)
        best_move: Optional[Tuple[float, int, Tuple[int, int]]] = None
        for i, grid in enumerate(grids):
            larger = [
                p for p in grid
                if (p[0] + p[1]) > (current[i][0] + current[i][1])
                and p[0] >= current[i][0] and p[1] >= current[i][1]
            ]
            if not larger:
                continue
            candidate = min(larger, key=lambda p: p[0] + p[1])
            new_total = total - pair_flops(i, current[i]) + pair_flops(i, candidate)
            if new_total > ceiling:
                continue
            trial = list(current)
            trial[i] = candidate
            new_lat, _ = group_lat(trial)
            gain = (candidate[0] + candidate[1]) - (
                current[i][0] + current[i][1]
            )
            cost = max(0.0, new_lat - base_lat)
            score = cost / gain
            if best_move is None or score < best_move[0]:
                best_move = (score, i, candidate)
        if best_move is not None:
            _, i, candidate = best_move
            total = total - pair_flops(i, current[i]) + pair_flops(i, candidate)
            current[i] = candidate
            improved = True

    final_lat, branch_lats = group_lat(current)
    return ConcurrentDecision(
        group=group,
        ranks=list(current),
        branch_latencies=branch_lats,
        group_latency=final_lat,
        total_tucker_flops=int(total),
    )


def inception_group(
    name: str, in_channels: int, h: int, w: int,
    branch_out: Sequence[int], kernel_sizes: Sequence[int],
) -> ConcurrentGroup:
    """Convenience builder for an Inception-style concurrent group."""
    if len(branch_out) != len(kernel_sizes):
        raise ValueError("branch_out and kernel_sizes must align")
    branches = tuple(
        LayerShape(
            name=f"{name}.b{i}", c=in_channels, n=n_out, h=h, w=w, r=k, s=k
        )
        for i, (n_out, k) in enumerate(zip(branch_out, kernel_sizes))
    )
    return ConcurrentGroup(name=name, branches=branches)
