"""Hardware-aware Tucker rank selection (Sec. 6, Algorithm 1).

Given the decomposable conv layers of a model, a FLOPs-reduction
budget ``B``, and a device, this module chooses per-layer ranks
``(D1, D2)``:

1. Build (or fetch) the performance table T for the layer shape.
2. Among rank candidates whose Tucker FLOPs satisfy the layer's share
   of the budget, pick the minimum-latency entry, tie-broken toward
   the *largest* ranks (Alg. 1 line 3: maximize ranks while minimizing
   latency under the budget — larger ranks preserve accuracy).
3. θ-threshold rule: if the best Tucker latency ``t1`` is not at least
   θ (=15%) faster than the original layer's latency ``t2``, leave the
   layer dense — two extra 1x1 launches are not worth it — and
   redistribute its planned FLOPs reduction to the remaining layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Tuple

from repro.codesign.flops import achieved_reduction
from repro.codesign.table import build_performance_table
from repro.gpusim.device import DeviceSpec
from repro.tensor.formats import resolve_formats
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class LayerShape:
    """A decomposable conv layer as seen by the co-design."""

    name: str
    c: int
    n: int
    h: int          # core-conv spatial extent (output resolution)
    w: int
    r: int = 3
    s: int = 3

    def __post_init__(self) -> None:
        for attr in ("c", "n", "h", "w", "r", "s"):
            check_positive_int(attr, getattr(self, attr))


@dataclass(frozen=True)
class RankDecision:
    """Outcome of Algorithm 1 for one layer."""

    layer: LayerShape
    tucker_latency: float        # t1 (= original latency when skipped)
    original_latency: float      # t2
    dense_flops: int
    compressed_flops: int        # = dense_flops when skipped
    # "selected" | "theta_skip" | "no_candidate" | "not_decomposable"
    reason: str
    # Which decomposition format was chosen (meaningful when decomposed;
    # "tucker" for every dense decision).
    format: str = "tucker"
    # Format-generic rank tuple: (d1, d2) for Tucker, (q,) for CP,
    # (r1, r2) for TT.  None when the layer stays dense.
    ranks: Optional[Tuple[int, ...]] = None

    @property
    def decomposed(self) -> bool:
        return self.ranks is not None

    @property
    def d1(self) -> Optional[int]:
        """Tucker input-channel rank; None unless decomposed as Tucker."""
        return self._tucker_rank(0)

    @property
    def d2(self) -> Optional[int]:
        """Tucker output-channel rank; None unless decomposed as Tucker."""
        return self._tucker_rank(1)

    def _tucker_rank(self, mode: int) -> Optional[int]:
        if self.ranks is None or self.format != "tucker":
            return None
        return self.ranks[mode]

    @property
    def reduction(self) -> float:
        return achieved_reduction(self.dense_flops, self.compressed_flops)


@dataclass
class RankPlan:
    """Full-model rank selection result."""

    decisions: List[RankDecision]
    budget: float
    theta: float
    device_name: str

    @property
    def total_dense_flops(self) -> int:
        return sum(d.dense_flops for d in self.decisions)

    @property
    def total_compressed_flops(self) -> int:
        return sum(d.compressed_flops for d in self.decisions)

    @property
    def achieved_reduction(self) -> float:
        return achieved_reduction(
            self.total_dense_flops, self.total_compressed_flops
        )

    @property
    def total_latency(self) -> float:
        return sum(d.tucker_latency for d in self.decisions)

    @property
    def total_original_latency(self) -> float:
        return sum(d.original_latency for d in self.decisions)

    def ranks(self) -> List[Tuple[str, Optional[int], Optional[int]]]:
        return [(d.layer.name, d.d1, d.d2) for d in self.decisions]

    def speedup(self) -> float:
        """Layerwise simulated speedup of the plan over dense cuDNN."""
        if self.total_latency == 0:
            return float("inf")
        return self.total_original_latency / self.total_latency


def _layer_options(
    layer: LayerShape, device: DeviceSpec, formats: Tuple[str, ...],
    rank_step: int, method: str,
):
    """``(t2, candidates, pick)`` for one layer: the dense layer's
    latency, its candidates (table entries or format candidates; both
    carry ``format``, ``ranks``, ``flops`` and ``total_latency``), and
    the plateau pick ``pick(max_flops)`` of Alg. 1 line 3."""
    if formats == ("tucker",):
        # The paper's table and its balanced-rank plateau pick.
        table = build_performance_table(
            layer.c, layer.n, layer.h, layer.w, device,
            r=layer.r, s=layer.s, rank_step=rank_step, method=method,
        )
        return table.original_latency, table.entries, table.best_under_budget
    # Deferred import: format_search imports LayerShape from here.
    from repro.codesign.format_search import (
        best_format_under_budget,
        layer_format_candidates,
    )

    original, candidates = layer_format_candidates(
        layer, device, formats, rank_step=rank_step, method=method
    )
    return original, candidates, partial(best_format_under_budget, candidates)


def _left_dense(
    layer: LayerShape, latency: float, dense_flops: int, reason: str
) -> RankDecision:
    return RankDecision(
        layer=layer, tucker_latency=latency, original_latency=latency,
        dense_flops=dense_flops, compressed_flops=dense_flops, reason=reason,
    )


def select_ranks(
    layers: Sequence[LayerShape],
    device: DeviceSpec,
    budget: float,
    theta: float = 0.15,
    rank_step: int = 32,
    method: str = "model",
    max_layer_reduction: float = 0.85,
    formats: Sequence[str] = ("tucker",),
) -> RankPlan:
    """Run Algorithm 1 over an ordered list of decomposable layers.

    ``budget`` is the target FLOPs-reduction fraction B in (0, 1);
    ``theta`` the skip threshold of Sec. 6 (paper uses 0.15).  Budget
    redistribution: a skipped layer's planned reduction is spread over
    the remaining layers proportionally to their dense FLOPs — but
    never beyond ``max_layer_reduction`` of any single layer, so that
    carried budget cannot force the "over rank reduction" the paper's
    Sec. 6 warns destroys accuracy.  ``max_layer_reduction`` must lie
    in (0, 1) — anything else raises — and is floored at ``budget``
    (a per-layer cap tighter than the global target is unsatisfiable).
    If the inflated target is unreachable the layer falls back to its
    own base share of the budget (the global reduction may then land
    short of B, which the paper's "⪅ B" accepts).  Layers whose C or N
    extent is 1 have no rank strictly below the original extent and
    are left dense (``reason="not_decomposable"``).

    ``formats`` widens the search from Tucker-only (the paper's
    Algorithm 1, the default) to any set of registered decomposition
    formats — pass ``("tucker", "cp", "tt")``, ``"all"``, or ``"auto"``
    and each layer picks the (format, ranks) pair that wins on latency
    under its FLOPs share.  Both run the same loop; they differ only in
    each layer's candidates and plateau pick: Tucker-only takes the
    performance table's balanced-rank pick
    (:meth:`~repro.codesign.table.PerformanceTable.best_under_budget`),
    mixed formats
    :func:`~repro.codesign.format_search.best_format_under_budget`.
    """
    if not layers:
        raise ValueError("select_ranks needs at least one layer")
    if not 0.0 < budget < 1.0:
        raise ValueError(f"budget must be in (0, 1), got {budget}")
    if not 0.0 <= theta < 1.0:
        raise ValueError(f"theta must be in [0, 1), got {theta}")
    if not 0.0 < max_layer_reduction < 1.0:
        raise ValueError(
            f"max_layer_reduction must be in (0, 1), got {max_layer_reduction}"
        )
    # Documented budget-floor clamp: the per-layer cap can never be
    # tighter than the global budget itself.
    max_layer_reduction = max(max_layer_reduction, budget)

    formats = resolve_formats(formats)

    flops_list = [
        2 * l.h * l.w * l.c * l.n * l.r * l.s for l in layers
    ]
    decisions: List[RankDecision] = []
    extra_budget = 0.0  # FLOPs of reduction carried from skipped layers

    for i, layer in enumerate(layers):
        dense = flops_list[i]
        remaining = sum(flops_list[i:])
        # This layer's reduction target: its own share plus a
        # FLOPs-proportional slice of the carried pool, capped against
        # over-reduction.
        carried = extra_budget * dense / remaining if remaining else 0.0
        target_reduction = min(
            budget * dense + carried, max_layer_reduction * dense
        )
        t2, candidates, pick = _layer_options(
            layer, device, formats, rank_step, method
        )
        if not candidates:
            # An extent-1 mode has no rank below the original extent:
            # "compressing" would add two 1x1 launches for zero
            # reduction.  Leave dense, carry the planned reduction on.
            decisions.append(_left_dense(layer, t2, dense, "not_decomposable"))
            extra_budget += target_reduction
            continue
        chosen = pick(dense - target_reduction)
        reason = "selected"
        if chosen is None:
            # The inflated target is unreachable: retry with the
            # layer's own base share before giving up on the budget.
            chosen = pick(dense * (1.0 - budget))
            if chosen is None:
                reason = "no_candidate"
                chosen = min(
                    candidates, key=lambda c: (c.flops, c.total_latency)
                )

        t1 = chosen.total_latency
        if t1 >= (1.0 - theta) * t2:
            # θ rule: not enough latency benefit -> leave dense, carry
            # the planned reduction to the remaining layers.
            decisions.append(_left_dense(layer, t2, dense, "theta_skip"))
            extra_budget += target_reduction
        else:
            decisions.append(
                RankDecision(
                    layer=layer, tucker_latency=t1, original_latency=t2,
                    dense_flops=dense, compressed_flops=chosen.flops,
                    reason=reason, format=chosen.format, ranks=chosen.ranks,
                )
            )
            achieved = dense - chosen.flops
            # Reduce the carried pool by whatever this layer delivered
            # beyond its own base share.
            surplus = achieved - budget * dense
            extra_budget = max(0.0, extra_budget - max(0.0, surplus))

    return RankPlan(
        decisions=decisions, budget=budget, theta=theta,
        device_name=device.name,
    )
