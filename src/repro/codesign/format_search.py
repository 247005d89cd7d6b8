"""Format x rank candidate enumeration for Algorithm 1.

Generalizes the per-layer performance table: instead of only Tucker's
``(D1, D2)`` grid, every registered decomposition format contributes
its rank candidates, each costed as the sum of its kernel chain's
(:meth:`repro.tensor.formats.DecompFormat.chain`) analytical latencies
on the target device:

- ``tucker``: 1x1 + TDC core (tiling-selected) + 1x1 — taken straight
  from :func:`repro.codesign.table.build_performance_table`, so the
  numbers (and the memoized cache) are the paper's table;
- every other format: 1x1 + core + 1x1, the core being the depthwise
  stage plus any group-sum (:func:`repro.kernels.depthwise.dwcore_latency`)
  or, for a dense core, its tiling-selected TDC latency.

All stage latencies are evaluated at the layer's core-conv extent
(``LayerShape.h/w`` = output resolution), matching the Tucker-table
convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends import get_backend
from repro.codesign.rank_selection import LayerShape
from repro.codesign.table import build_performance_table
from repro.gpusim.device import DeviceSpec
from repro.kernels.base import ConvShape
from repro.kernels.depthwise import dwcore_latency
from repro.kernels.pointwise import pointwise_latency
from repro.kernels.tdc_direct import Tiling
from repro.perfmodel.tiling import select_tiling
from repro.planning.cache import PlanCache
from repro.tensor.formats import (
    Chain,
    DecompFormat,
    get_format,
    resolve_formats,
)


@dataclass(frozen=True)
class FormatCandidate:
    """One (format, ranks) point in the generalized performance table."""

    format: str
    ranks: Tuple[int, ...]
    pw1_latency: float       # 1x1 input projection
    core_latency: float      # middle stage (core conv / depthwise [+ group-sum])
    pw2_latency: float       # 1x1 output projection
    flops: int
    params: int
    tiling: Optional[Tiling] = None   # Tucker core tiling, None otherwise

    @property
    def total_latency(self) -> float:
        return self.pw1_latency + self.core_latency + self.pw2_latency


# (format, shape tuple, device fingerprint, rank_step, method) -> candidates.
# The Tucker rows are built from the (also memoized) performance table;
# CP/TT rows are cheap to build but planning sweeps revisit the same
# shapes a lot.
_CANDIDATE_CACHE = PlanCache("format_candidates", maxsize=1024)


def _tucker_candidates(
    layer: LayerShape, device: DeviceSpec, rank_step: int, method: str
) -> List[FormatCandidate]:
    table = build_performance_table(
        layer.c, layer.n, layer.h, layer.w, device,
        r=layer.r, s=layer.s, rank_step=rank_step, method=method,
    )
    tucker = get_format("tucker")
    return [
        FormatCandidate(
            format="tucker",
            ranks=(e.d1, e.d2),
            pw1_latency=e.pw1_latency,
            core_latency=e.core_latency,
            pw2_latency=e.pw2_latency,
            flops=e.flops,
            params=tucker.n_params(
                layer.c, layer.n, layer.r, layer.s, (e.d1, e.d2)
            ),
            tiling=e.tiling,
        )
        for e in table.entries
    ]


def _chain_candidates(
    fmt: DecompFormat, layer: LayerShape, device: DeviceSpec, rank_step: int,
    method: str,
) -> List[FormatCandidate]:
    """Candidates of a non-Tucker format, each stage priced from the
    format's chain (stage latencies memoized per distinct width)."""
    pw1: Dict[int, float] = {}
    core: Dict[Chain, float] = {}
    pw2: Dict[int, float] = {}
    out: List[FormatCandidate] = []
    h, w = layer.h, layer.w
    for ranks in fmt.rank_candidates(layer.c, layer.n, layer.r, layer.s,
                                     rank_step):
        ch = fmt.chain(ranks)
        if ch.mid not in pw1:
            pw1[ch.mid] = pointwise_latency(layer.c, ch.mid, h, w, device)
        if ch not in core:
            shape = ConvShape(c=ch.mid, n=ch.core_out, h=h, w=w,
                              r=layer.r, s=layer.s)
            if ch.depthwise:
                core[ch] = dwcore_latency(shape, device, ch.collapse)
            else:
                core[ch] = select_tiling(
                    shape, device, method=method
                ).simulated_latency
        if ch.out not in pw2:
            pw2[ch.out] = pointwise_latency(ch.out, layer.n, h, w, device)
        out.append(
            FormatCandidate(
                format=fmt.name,
                ranks=ranks,
                pw1_latency=pw1[ch.mid],
                core_latency=core[ch],
                pw2_latency=pw2[ch.out],
                flops=fmt.flops(
                    layer.c, layer.n, h, w, ranks, layer.r, layer.s
                ),
                params=fmt.n_params(layer.c, layer.n, layer.r, layer.s, ranks),
            )
        )
    return out


def layer_format_candidates(
    layer: LayerShape,
    device: DeviceSpec,
    formats: Sequence[str],
    rank_step: int = 32,
    method: str = "model",
) -> Tuple[float, List[FormatCandidate]]:
    """All (format, ranks) candidates for one layer, plus the dense
    layer's cuDNN latency for the θ rule.

    ``formats`` must already be resolved names (see
    :func:`repro.tensor.formats.resolve_formats`).  Candidate lists are
    memoized per (format, shape, device, step, method).
    """
    formats = resolve_formats(formats)
    shape_key = (layer.c, layer.n, layer.h, layer.w, layer.r, layer.s)
    fingerprint = device.fingerprint()

    candidates: List[FormatCandidate] = []
    for name in formats:
        key = (name, shape_key, fingerprint, rank_step, method)
        cached = _CANDIDATE_CACHE.get(key)
        if cached is None:
            if name == "tucker":
                cached = _tucker_candidates(layer, device, rank_step, method)
            else:
                cached = _chain_candidates(
                    get_format(name), layer, device, rank_step, method
                )
            cached = _CANDIDATE_CACHE.put(key, cached)
        candidates.extend(cached)

    if "tucker" in formats:
        # The table memoizes the dense baseline; reuse it.
        original = build_performance_table(
            layer.c, layer.n, layer.h, layer.w, device,
            r=layer.r, s=layer.s, rank_step=rank_step, method=method,
        ).original_latency
    else:
        dense_shape = ConvShape(
            c=layer.c, n=layer.n, h=layer.h, w=layer.w, r=layer.r, s=layer.s
        )
        original = get_backend("cudnn").core_latency(dense_shape, device)
    return original, candidates


def best_format_under_budget(
    candidates: Sequence[FormatCandidate],
    max_flops: float,
    latency_tolerance: float = 0.12,
) -> Optional[FormatCandidate]:
    """Alg. 1 line 3 across formats: each format resolves its latency
    plateau toward the most parameters, then the formats' resolved
    picks compete on latency alone.

    Parameter count is the per-format analog of "largest ranks":
    within one format's latency plateau, more retained parameters
    preserve more accuracy.  The *cross-format* comparison is strict
    min-latency over those accuracy-resolved picks — this keeps the
    mixed-format search dominant: per site it returns exactly the
    fastest of the single-format-restricted choices, so a mixed plan
    can never be slower than the best single-format plan under the
    same budget shares.
    """
    feasible = [c for c in candidates if c.flops <= max_flops]
    if not feasible:
        return None
    per_format: Dict[str, List[FormatCandidate]] = {}
    for c in feasible:
        per_format.setdefault(c.format, []).append(c)
    picks = []
    for group in per_format.values():
        fastest = min(c.total_latency for c in group)
        plateau = [
            c for c in group
            if c.total_latency <= fastest * (1.0 + latency_tolerance)
        ]
        picks.append(max(plateau, key=lambda c: (c.params, -c.total_latency)))
    return min(picks, key=lambda c: (c.total_latency, -c.params))
