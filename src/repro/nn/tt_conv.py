"""TT-format convolution layer (grouped depthwise-separable chain).

Executes a TT decomposition of the ``(N, C, R*S)`` kernel reshaping
as four cheap stages: a 1x1 conv ``C -> r1*r2`` (core G1), a depthwise
RxS conv where channel ``(a, b)`` carries spatial core ``G2[b]``
(carrying the original stride/padding), a group-sum collapsing the
``r2`` axis (``r1*r2 -> r1``), and a 1x1 conv ``r1 -> N`` (core G0).
The narrow ``r1 -> N`` projection is where TT beats CP on latency when
output channels dominate; the group-sum is a pure memory-bound op.
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
from repro.tensor.formats import get_format
from repro.tensor.tt import tt_conv_kernel
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.validation import check_positive_int


class TTConv2d(Module):
    """Four-stage TT-format convolution.

    Parameters are stored as:

    - ``w_in``  : ``(r1*r2, C)``   — first 1x1 conv (G1, channel (a,b)=a*r2+b)
    - ``dw``    : ``(r1*r2, R, S)``— depthwise conv (channel (a,b) holds G2[b])
    - ``w_out`` : ``(N, r1)``      — final 1x1 conv (G0)
    - ``bias``  : ``(N,)``         — optional, applied after the last stage

    The group-sum between ``dw`` and ``w_out`` has no parameters.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rank1: int,
        rank2: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.in_channels = check_positive_int("in_channels", in_channels)
        self.out_channels = check_positive_int("out_channels", out_channels)
        self.kernel_size = check_positive_int("kernel_size", kernel_size)
        self.rank1 = check_positive_int("rank1", rank1)
        self.rank2 = check_positive_int("rank2", rank2)
        self.stride = check_positive_int("stride", stride)
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        self.padding = int(padding)

        q = self.rank1 * self.rank2
        r_in, r_dw, r_out = spawn_rngs(seed, 3)
        self.w_in = Parameter(
            kaiming_normal((q, in_channels, 1, 1), seed=r_in)[:, :, 0, 0]
        )
        self.dw = Parameter(
            kaiming_normal((q, 1, kernel_size, kernel_size), seed=r_dw)[:, 0]
        )
        self.w_out = Parameter(
            kaiming_normal((out_channels, self.rank1, 1, 1), seed=r_out)[:, :, 0, 0]
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
        rank1: int,
        rank2: int,
    ) -> "TTConv2d":
        """Decompose an existing dense conv into TT format.

        TT-SVD may truncate below the requested ranks (r1 is capped by
        the output-channel count, r2 by ``min(r1*C, R*S)``); the layer
        is built with the ranks actually achieved.
        """
        tt = tt_conv_kernel(conv.weight.data, max_ranks=(rank1, rank2))
        r1, r2 = tt.ranks
        layer = cls(
            in_channels=conv.in_channels,
            out_channels=conv.out_channels,
            kernel_size=conv.kernel_size,
            rank1=r1,
            rank2=r2,
            stride=conv.stride,
            padding=conv.padding,
            bias=conv.bias is not None,
            seed=0,
        )
        g0, g1, g2 = tt.cores  # (1, N, r1), (r1, C, r2), (r2, R*S, 1)
        k = conv.kernel_size
        layer.w_in.data[...] = g1.transpose(0, 2, 1).reshape(
            r1 * r2, conv.in_channels
        )
        layer.dw.data[...] = np.tile(g2[:, :, 0].reshape(r2, k, k), (r1, 1, 1))
        layer.w_out.data[...] = g0[0]
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
    def ranks(self) -> Tuple[int, int]:
        """The ``tt`` format's rank tuple ``(r1, r2)``."""
        return (self.rank1, self.rank2)

    def flops(self, h: int, w: int) -> int:
        """Sum of the four stages' FLOPs (2 per MAC; group-sum is adds)."""
        return get_format("tt").layer_flops(self, h, w, self.ranks)

    def n_weight_params(self) -> int:
        return int(self.w_in.size + self.dw.size + self.w_out.size)

    def to_conv_weight(self) -> np.ndarray:
        """Reconstruct the equivalent dense kernel ``(N, C, R, S)``."""
        r1, r2, k = self.rank1, self.rank2, self.kernel_size
        # K[n,c,r,s] = sum_{a,b} w_out[n,a] w_in[(a,b),c] dw[(a,b),r,s]
        return np.einsum(
            "na,abc,abrs->ncrs",
            self.w_out.data,
            self.w_in.data.reshape(r1, r2, self.in_channels),
            self.dw.data.reshape(r1, r2, k, k),
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
        b = x.shape[0]
        z1 = pointwise_conv_forward(x, self.w_in.data)
        z2 = depthwise_conv2d_forward(
            z1, self.dw.data, stride=self.stride, padding=self.padding
        )
        oh, ow = z2.shape[2], z2.shape[3]
        z3 = z2.reshape(b, self.rank1, self.rank2, oh, ow).sum(axis=2)
        y = pointwise_conv_forward(z3, self.w_out.data)
        self._cache = (x, z1, z2, z3)
        if self.bias is not None:
            y = y + self.bias.data[None, :, None, None]
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, z1, z2, z3 = self._cache
        if self.bias is not None:
            self.bias.accumulate(grad.sum(axis=(0, 2, 3)))
        grad_z3, grad_w_out = pointwise_conv_backward(grad, z3, self.w_out.data)
        self.w_out.accumulate(grad_w_out)
        # Group-sum backward: each of the r2 summed channels gets the
        # full upstream gradient.
        grad_z2 = np.repeat(grad_z3, self.rank2, axis=1)
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
            f"TTConv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, ranks=({self.rank1},{self.rank2}), "
            f"s={self.stride}, p={self.padding})"
        )
