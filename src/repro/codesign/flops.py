"""FLOPs / parameter accounting for dense convs and budgets.

Dense-conv complexity (Sec. 3) and the reduction ratios of Eqs.
(5)-(6).  Factored-layer costs come from each format's chain
(:meth:`repro.tensor.formats.DecompFormat.flops` / ``n_params``).  All
FLOPs counts use 2 FLOPs per MAC, matching the layer methods in
:mod:`repro.nn`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.tensor.formats import get_format


def conv_flops(c: int, n: int, h: int, w: int, r: int = 3, s: int = 3,
               out_h: int = 0, out_w: int = 0) -> int:
    """Dense conv FLOPs; output extent defaults to the input extent
    ("same" convolution, the paper's core-conv setting)."""
    out_h = out_h or h
    out_w = out_w or w
    return 2 * out_h * out_w * c * n * r * s


def conv_params(c: int, n: int, r: int = 3, s: int = 3) -> int:
    """Dense conv parameter count."""
    return c * n * r * s


def param_reduction_ratio(c: int, n: int, d1: int, d2: int,
                          r: int = 3, s: int = 3) -> float:
    """Eq. 5: dense params over Tucker params (gamma_P)."""
    return conv_params(c, n, r, s) / get_format("tucker").n_params(
        c, n, r, s, (d1, d2)
    )


def flops_reduction_ratio(
    c: int, n: int, h: int, w: int, d1: int, d2: int,
    r: int = 3, s: int = 3, out_h: int = 0, out_w: int = 0,
) -> float:
    """Eq. 6: dense FLOPs over Tucker FLOPs (gamma_F)."""
    return conv_flops(c, n, h, w, r, s, out_h, out_w) / get_format(
        "tucker"
    ).flops(c, n, h, w, (d1, d2), r, s, out_h, out_w)


@dataclass(frozen=True)
class LayerBudget:
    """FLOPs bookkeeping for one conv layer under a reduction budget."""

    dense_flops: int
    target_reduction: float  # fraction of dense FLOPs to remove

    def __post_init__(self) -> None:
        if self.dense_flops <= 0:
            raise ValueError("dense_flops must be positive")
        if not 0.0 <= self.target_reduction < 1.0:
            raise ValueError(
                f"target_reduction must be in [0, 1), got {self.target_reduction}"
            )

    @property
    def max_tucker_flops(self) -> float:
        """Largest Tucker FLOPs that still meets the layer's budget."""
        return self.dense_flops * (1.0 - self.target_reduction)


def achieved_reduction(dense_flops: int, compressed_flops: int) -> float:
    """Fraction of FLOPs removed (the paper's 'FLOPs down' column)."""
    if dense_flops <= 0:
        raise ValueError("dense_flops must be positive")
    return 1.0 - compressed_flops / dense_flops
