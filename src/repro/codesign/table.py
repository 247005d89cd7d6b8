"""The benchmark/performance table T of Sec. 6 and Fig. 5.

For one original conv layer ``(C, N, H, W)`` the co-design enumerates
the Tucker format's rank candidates ``(D1, D2)``
(:meth:`repro.tensor.formats.TuckerFormat.rank_candidates`: a step-32
grid per mode, since a warp is 32 threads and finer steps would leave
lanes idle — Sec. 6 — less the pairs whose core cannot use every
channel), and records the *full Tucker layer latency*: the 1x1
``C -> D1`` conv, the TDC core conv ``D1 -> D2`` with its selected
tiling, and the 1x1 ``D2 -> N`` conv, each including kernel-launch
overhead.  The original layer's latency under cuDNN IMPLICIT_GEMM (the
kernel an undecomposed layer would use at inference) is kept for the
θ-threshold rule.

Tables are built on first use and memoized in the planning-cache
subsystem (:mod:`repro.planning.cache`) keyed on the full shape, the
device's content fingerprint, the rank step, and the selection method,
since the five CNNs repeat many layer shapes.  Construction drives the
whole rank grid through the batched tiling selector, which memoizes
every core shape's selection too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends import get_backend
from repro.codesign.flops import conv_flops
from repro.gpusim.device import DeviceSpec
from repro.kernels.base import ConvShape
from repro.kernels.pointwise import pointwise_latency
from repro.kernels.tdc_direct import TDCDirectKernel, Tiling
from repro.perfmodel.tiling import select_tiling, select_tilings
from repro.planning.cache import PlanCache
from repro.tensor.formats import get_format


@dataclass(frozen=True)
class TableEntry:
    """One (D1, D2) candidate in the performance table."""

    d1: int                  # core conv input channels (rank of C mode)
    d2: int                  # core conv output channels (rank of N mode)
    pw1_latency: float       # 1x1 C -> D1
    core_latency: float      # TDC core conv D1 -> D2
    pw2_latency: float       # 1x1 D2 -> N
    tiling: Tiling
    flops: int               # Tucker layer FLOPs

    # Read by Algorithm 1, which records (format, ranks) per decision.
    format = "tucker"

    @property
    def ranks(self) -> Tuple[int, int]:
        """The ``tucker`` format's rank tuple."""
        return (self.d1, self.d2)

    @property
    def total_latency(self) -> float:
        return self.pw1_latency + self.core_latency + self.pw2_latency


@dataclass
class PerformanceTable:
    """Latency table for all rank candidates of one layer shape.

    ``entries`` is empty when the layer is not decomposable (an
    extent-1 mode has no rank strictly below the original extent);
    Algorithm 1 leaves such layers dense.
    """

    c: int
    n: int
    h: int
    w: int
    r: int
    s: int
    device_name: str
    original_latency: float          # dense layer via cuDNN (for θ rule)
    original_flops: int
    entries: List[TableEntry]
    rank_step: int = 32
    method: str = "model"
    # Lazily built (d1, d2) -> entry index; rebuilt if entries change.
    _index: Optional[Dict[Tuple[int, int], TableEntry]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def lookup(self, d1: int, d2: int) -> TableEntry:
        index = self._index
        if index is None or len(index) != len(self.entries):
            index = {(e.d1, e.d2): e for e in self.entries}
            self._index = index
        try:
            return index[(d1, d2)]
        except KeyError:
            raise KeyError(f"no entry for ranks ({d1}, {d2})") from None

    @property
    def decomposable(self) -> bool:
        return bool(self.entries)

    def candidates_within(self, max_flops: float) -> List[TableEntry]:
        """Entries meeting a FLOPs ceiling (the budget constraint)."""
        return [e for e in self.entries if e.flops <= max_flops]

    def best_under_budget(
        self, max_flops: float, latency_tolerance: float = 0.12
    ) -> Optional[TableEntry]:
        """Alg. 1 line 3: ``max{argmin_{P(D1,D2)<=B} T(D1,D2)}``.

        The latency staircase (Fig. 4) makes many rank pairs share the
        same effective latency; the paper resolves the argmin set by
        taking the *largest* ranks in it (bigger ranks cost nothing in
        time but preserve accuracy).  Simulated latencies inside one
        staircase step differ by small second-order terms, so the
        argmin set is formed by grouping latencies within
        ``latency_tolerance`` of the minimum.
        """
        feasible = self.candidates_within(max_flops)
        if not feasible:
            return None
        best_latency = min(e.total_latency for e in feasible)
        plateau = [
            e for e in feasible
            if e.total_latency <= best_latency * (1.0 + latency_tolerance)
        ]
        # Within the plateau prefer *balanced* rank pairs first (a tiny
        # D1 or D2 bottlenecks the whole layer's information flow and
        # is what "over rank reduction" looks like in practice), then
        # the largest total rank.
        return max(
            plateau,
            key=lambda e: (min(e.d1, e.d2), e.d1 + e.d2, -e.total_latency),
        )


_TABLE_CACHE = PlanCache("table", maxsize=1024)


def table_cache() -> PlanCache:
    """The shared performance-table cache."""
    return _TABLE_CACHE


def table_key(
    c: int, n: int, h: int, w: int, r: int, s: int,
    device: DeviceSpec, rank_step: int, method: str,
) -> tuple:
    """Cache key for one table: full shape identity plus the device's
    content fingerprint (never its display name)."""
    return (c, n, h, w, r, s, device.fingerprint(), rank_step, method)


def _grid_entries(
    c: int, n: int, h: int, w: int, r: int, s: int,
    device: DeviceSpec, method: str,
    pairs: Sequence[Tuple[int, int]],
) -> List[TableEntry]:
    """Table entries for a list of ``(D1, D2)`` rank pairs.

    All core-shape tiling selections go through the batched selector
    in one pass (cache hits skipped); the 1x1 stage latencies are
    memoized per distinct ``D1`` / ``D2`` since they do not depend on
    the partner rank.
    """
    core_shapes = [
        ConvShape(c=d1, n=d2, h=h, w=w, r=r, s=s) for d1, d2 in pairs
    ]
    choices = select_tilings(core_shapes, device, method=method)
    pw1: Dict[int, float] = {}
    pw2: Dict[int, float] = {}
    entries: List[TableEntry] = []
    for (d1, d2), choice in zip(pairs, choices):
        if d1 not in pw1:
            pw1[d1] = pointwise_latency(c, d1, h, w, device)
        if d2 not in pw2:
            pw2[d2] = pointwise_latency(d2, n, h, w, device)
        entries.append(
            TableEntry(
                d1=d1,
                d2=d2,
                pw1_latency=pw1[d1],
                core_latency=choice.simulated_latency,
                pw2_latency=pw2[d2],
                tiling=choice.tiling,
                flops=get_format("tucker").flops(c, n, h, w, (d1, d2), r, s),
            )
        )
    return entries


def build_performance_table(
    c: int,
    n: int,
    h: int,
    w: int,
    device: DeviceSpec,
    r: int = 3,
    s: int = 3,
    rank_step: int = 32,
    method: str = "model",
    use_cache: bool = True,
) -> PerformanceTable:
    """Generate (or fetch memoized) the table T for one layer shape.

    The whole ``(D1, D2)`` rank grid is driven through the batched
    tiling selector, which evaluates every core shape's candidate
    sweep in one vectorized pass.
    """
    key = table_key(c, n, h, w, r, s, device, rank_step, method)
    if use_cache:
        cached = _TABLE_CACHE.get(key)
        if cached is not None:
            return cached

    dense_shape = ConvShape(c=c, n=n, h=h, w=w, r=r, s=s)
    # The kernel an undecomposed layer would use at inference, resolved
    # through the backend registry (the paper's cuDNN baseline).
    original_latency = get_backend("cudnn").core_latency(dense_shape, device)

    entries = _grid_entries(
        c, n, h, w, r, s, device, method,
        get_format("tucker").rank_candidates(c, n, r, s, rank_step),
    )

    table = PerformanceTable(
        c=c, n=n, h=h, w=w, r=r, s=s,
        device_name=device.name,
        original_latency=original_latency,
        original_flops=conv_flops(c, n, h, w, r, s),
        entries=entries,
        rank_step=rank_step,
        method=method,
    )
    if use_cache:
        return _TABLE_CACHE.put(key, table)
    return table


def clear_table_cache() -> None:
    """Drop all memoized tables (used by tests/benchmarks)."""
    _TABLE_CACHE.clear()
