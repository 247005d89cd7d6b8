"""Tucker-format convolution layer (the paper's compressed layer).

Implements Eqs. (2)-(4): a 1x1 conv ``C -> D1``, an RxS "core" conv
``D1 -> D2`` (carrying the original stride/padding), and a 1x1 conv
``D2 -> N``.  ``TuckerConv2d.from_conv`` builds the layer from a dense
:class:`~repro.nn.conv.Conv2d` via partial Tucker (Alg. 1 line 12); all
three stages remain trainable for the fine-tuning phase (Alg. 1 line 13).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.functional import (
    conv2d_backward,
    conv2d_forward,
    conv_out_size,
    pointwise_conv_backward,
    pointwise_conv_forward,
)
from repro.nn.init import kaiming_normal, zeros
from repro.nn.module import Module, Parameter
from repro.tensor.formats import get_format
from repro.tensor.tucker import tucker2_conv_kernel
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.validation import check_positive_int


class TuckerConv2d(Module):
    """Three-stage Tucker-format convolution.

    Parameters are stored as:

    - ``w_in``  : ``(D1, C)``       — first 1x1 conv (U1 transposed)
    - ``core``  : ``(D2, D1, R, S)``— core conv
    - ``w_out`` : ``(N, D2)``       — second 1x1 conv (U2)
    - ``bias``  : ``(N,)``          — optional, applied after stage 3
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        rank_in: int,
        rank_out: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.in_channels = check_positive_int("in_channels", in_channels)
        self.out_channels = check_positive_int("out_channels", out_channels)
        self.kernel_size = check_positive_int("kernel_size", kernel_size)
        self.rank_in = check_positive_int("rank_in", rank_in)
        self.rank_out = check_positive_int("rank_out", rank_out)
        if rank_in > in_channels:
            raise ValueError(
                f"rank_in ({rank_in}) cannot exceed in_channels ({in_channels})"
            )
        if rank_out > out_channels:
            raise ValueError(
                f"rank_out ({rank_out}) cannot exceed out_channels ({out_channels})"
            )
        self.stride = check_positive_int("stride", stride)
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        self.padding = int(padding)

        r_in, r_core, r_out = spawn_rngs(seed, 3)
        self.w_in = Parameter(
            kaiming_normal((rank_in, in_channels, 1, 1), seed=r_in)[:, :, 0, 0]
        )
        self.core = Parameter(
            kaiming_normal((rank_out, rank_in, kernel_size, kernel_size), seed=r_core)
        )
        self.w_out = Parameter(
            kaiming_normal((out_channels, rank_out, 1, 1), seed=r_out)[:, :, 0, 0]
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
        rank_out: int,
        rank_in: int,
        n_iter: int = 10,
    ) -> "TuckerConv2d":
        """Decompose an existing dense conv into Tucker format.

        Uses HOOI-refined partial Tucker on the channel modes; the bias
        (if any) transfers unchanged since stage 3 is channel-linear.
        """
        layer = cls(
            in_channels=conv.in_channels,
            out_channels=conv.out_channels,
            kernel_size=conv.kernel_size,
            rank_in=rank_in,
            rank_out=rank_out,
            stride=conv.stride,
            padding=conv.padding,
            bias=conv.bias is not None,
            seed=0,
        )
        u_out, core, u_in = tucker2_conv_kernel(
            conv.weight.data, rank_out=rank_out, rank_in=rank_in, n_iter=n_iter
        )
        layer.w_in.data[...] = u_in.T
        layer.core.data[...] = core
        layer.w_out.data[...] = u_out
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
        """The ``tucker`` format's rank tuple ``(d1, d2)``."""
        return (self.rank_in, self.rank_out)

    def flops(self, h: int, w: int) -> int:
        """Sum of the three stages' FLOPs (Sec. 3 complexity analysis)."""
        return get_format("tucker").layer_flops(self, h, w, self.ranks)

    def n_weight_params(self) -> int:
        """Parameter count (numerator comparison for Eq. 5)."""
        return int(self.w_in.size + self.core.size + self.w_out.size)

    def to_conv_weight(self) -> np.ndarray:
        """Reconstruct the equivalent dense kernel ``(N, C, R, S)``.

        Used by equivalence tests: a TuckerConv2d forward must match a
        dense conv with this kernel exactly (up to float error).
        """
        # K[n,c,r,s] = sum_{d2,d1} w_out[n,d2] core[d2,d1,r,s] w_in[d1,c]
        return np.einsum(
            "nd,defg,ec->ncfg",
            self.w_out.data,
            self.core.data,
            self.w_in.data,
            optimize=True,
        )

    def export_weights(
        self, dtype: np.dtype = np.dtype(np.float64)
    ) -> Dict[str, Optional[np.ndarray]]:
        """Contiguous snapshots of the factor/core weights.

        Used by the compile step: an :class:`~repro.inference.Executable`
        owns its weights, so later training/mutation of this module does
        not leak into an already-compiled artifact.
        """
        return {
            "w_in": np.array(self.w_in.data, dtype=dtype, order="C"),
            "core": np.array(self.core.data, dtype=dtype, order="C"),
            "w_out": np.array(self.w_out.data, dtype=dtype, order="C"),
            "bias": (
                np.array(self.bias.data, dtype=dtype, order="C")
                if self.bias is not None else None
            ),
        }

    # -- compute ---------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        z1 = pointwise_conv_forward(x, self.w_in.data)
        z2, cols = conv2d_forward(
            z1, self.core.data, stride=self.stride, padding=self.padding
        )
        y = pointwise_conv_forward(z2, self.w_out.data)
        self._cache = (x, z1, cols, z1.shape, z2)
        if self.bias is not None:
            y = y + self.bias.data[None, :, None, None]
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, z1, cols, z1_shape, z2 = self._cache
        if self.bias is not None:
            self.bias.accumulate(grad.sum(axis=(0, 2, 3)))
        grad_z2, grad_w_out = pointwise_conv_backward(grad, z2, self.w_out.data)
        self.w_out.accumulate(grad_w_out)
        grad_z1, grad_core = conv2d_backward(
            grad_z2, cols, self.core.data, z1_shape,
            stride=self.stride, padding=self.padding,
        )
        self.core.accumulate(grad_core)
        grad_x, grad_w_in = pointwise_conv_backward(grad_z1, x, self.w_in.data)
        self.w_in.accumulate(grad_w_in)
        self._cache = None
        return grad_x

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TuckerConv2d({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, ranks=({self.rank_out},{self.rank_in}), "
            f"s={self.stride}, p={self.padding})"
        )
