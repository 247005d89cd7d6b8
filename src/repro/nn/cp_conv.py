"""CP-format convolution layer (depthwise-separable chain).

Executes a rank-``Q`` CP-decomposed conv as the Lebedev-style chain:
a 1x1 conv ``C -> Q``, a depthwise RxS conv over the ``Q`` channels
(carrying the original stride/padding), and a 1x1 conv ``Q -> N``.
The two spatial CP factors fuse into one per-channel RxS filter, so
the chain has three kernels — same count as Tucker, but the middle
stage is memory-bound (one filter per channel) instead of a dense
core conv.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.functional import (
    conv_out_size,
    depthwise_conv2d_backward,
    depthwise_conv2d_forward,
    pointwise_conv_backward,
    pointwise_conv_forward,
)
from repro.nn.init import kaiming_normal, zeros
from repro.nn.module import Module, Parameter
from repro.tensor.cp import cp_conv_kernel
from repro.tensor.formats import get_format
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.validation import check_positive_int


class CPConv2d(Module):
    """Three-stage CP-format convolution.

    Parameters are stored as:

    - ``w_in``  : ``(Q, C)``   — first 1x1 conv (A_c transposed)
    - ``dw``    : ``(Q, R, S)``— depthwise conv (A_r outer A_s per component)
    - ``w_out`` : ``(N, Q)``   — second 1x1 conv (A_n scaled by the CP weights)
    - ``bias``  : ``(N,)``     — optional, applied after stage 3
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rank: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.in_channels = check_positive_int("in_channels", in_channels)
        self.out_channels = check_positive_int("out_channels", out_channels)
        self.kernel_size = check_positive_int("kernel_size", kernel_size)
        self.rank = check_positive_int("rank", rank)
        self.stride = check_positive_int("stride", stride)
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        self.padding = int(padding)

        r_in, r_dw, r_out = spawn_rngs(seed, 3)
        self.w_in = Parameter(
            kaiming_normal((rank, in_channels, 1, 1), seed=r_in)[:, :, 0, 0]
        )
        self.dw = Parameter(
            kaiming_normal((rank, 1, kernel_size, kernel_size), seed=r_dw)[:, 0]
        )
        self.w_out = Parameter(
            kaiming_normal((out_channels, rank, 1, 1), seed=r_out)[:, :, 0, 0]
        )
        self.bias: Optional[Parameter] = (
            Parameter(zeros((out_channels,))) if bias else None
        )
        self._cache = None

    # -- construction from a dense layer -------------------------------
    @classmethod
    def from_conv(
        cls,
        conv: Conv2d,
        rank: int,
        n_iter: int = 60,
    ) -> "CPConv2d":
        """Decompose an existing dense conv into CP format.

        Runs CP-ALS with shared rank ``rank``; the per-component CP
        weights fold into ``w_out`` so the chain stays three stages.
        """
        layer = cls(
            in_channels=conv.in_channels,
            out_channels=conv.out_channels,
            kernel_size=conv.kernel_size,
            rank=rank,
            stride=conv.stride,
            padding=conv.padding,
            bias=conv.bias is not None,
            seed=0,
        )
        cp = cp_conv_kernel(conv.weight.data, rank=rank, n_iter=n_iter)
        a_n, a_c, a_r, a_s = cp.factors
        layer.w_in.data[...] = a_c.T
        layer.dw.data[...] = np.einsum("rq,sq->qrs", a_r, a_s, optimize=True)
        layer.w_out.data[...] = a_n * cp.weights[None, :]
        if conv.bias is not None and layer.bias is not None:
            layer.bias.data[...] = conv.bias.data
        return layer

    # -- shape/cost helpers ---------------------------------------------
    def output_shape(self, h: int, w: int) -> Tuple[int, int]:
        return (
            conv_out_size(h, self.kernel_size, self.stride, self.padding),
            conv_out_size(w, self.kernel_size, self.stride, self.padding),
        )

    @property
    def ranks(self) -> Tuple[int]:
        """The ``cp`` format's rank tuple ``(q,)``."""
        return (self.rank,)

    def flops(self, h: int, w: int) -> int:
        """Sum of the three stages' FLOPs (2 per MAC)."""
        return get_format("cp").layer_flops(self, h, w, self.ranks)

    def n_weight_params(self) -> int:
        return int(self.w_in.size + self.dw.size + self.w_out.size)

    def to_conv_weight(self) -> np.ndarray:
        """Reconstruct the equivalent dense kernel ``(N, C, R, S)``."""
        # K[n,c,r,s] = sum_q w_out[n,q] dw[q,r,s] w_in[q,c]
        return np.einsum(
            "nq,qrs,qc->ncrs",
            self.w_out.data,
            self.dw.data,
            self.w_in.data,
            optimize=True,
        )

    def export_weights(
        self, dtype: np.dtype = np.dtype(np.float64)
    ) -> Dict[str, Optional[np.ndarray]]:
        """Contiguous snapshots of the factor weights (compile step)."""
        return {
            "w_in": np.array(self.w_in.data, dtype=dtype, order="C"),
            "dw": np.array(self.dw.data, dtype=dtype, order="C"),
            "w_out": np.array(self.w_out.data, dtype=dtype, order="C"),
            "bias": (
                np.array(self.bias.data, dtype=dtype, order="C")
                if self.bias is not None else None
            ),
        }

    # -- compute ---------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        z1 = pointwise_conv_forward(x, self.w_in.data)
        z2 = depthwise_conv2d_forward(
            z1, self.dw.data, stride=self.stride, padding=self.padding
        )
        y = pointwise_conv_forward(z2, self.w_out.data)
        self._cache = (x, z1, z2)
        if self.bias is not None:
            y = y + self.bias.data[None, :, None, None]
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, z1, z2 = self._cache
        if self.bias is not None:
            self.bias.accumulate(grad.sum(axis=(0, 2, 3)))
        grad_z2, grad_w_out = pointwise_conv_backward(grad, z2, self.w_out.data)
        self.w_out.accumulate(grad_w_out)
        grad_z1, grad_dw = depthwise_conv2d_backward(
            grad_z2, z1, self.dw.data,
            stride=self.stride, padding=self.padding,
        )
        self.dw.accumulate(grad_dw)
        grad_x, grad_w_in = pointwise_conv_backward(grad_z1, x, self.w_in.data)
        self.w_in.accumulate(grad_w_in)
        self._cache = None
        return grad_x

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CPConv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, rank={self.rank}, "
            f"s={self.stride}, p={self.padding})"
        )
