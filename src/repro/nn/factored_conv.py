"""Factored convolution: the kernel chain every compressed format runs.

The paper's compressed layer (Eqs. 2-4) is a chain: a 1x1 conv
``C -> mid``, a KxK core carrying the original stride/padding, and a
1x1 conv ``out -> N``.  A format's :class:`~repro.tensor.formats.Chain`
fixes the widths: a dense core maps ``mid -> core_out`` (Tucker); a
depthwise core keeps ``mid`` channels (CP, TT), and a chain with a
``collapse`` group-sums the core's channels down to ``out`` before the
last 1x1 (TT).  :class:`FactoredConv2d` owns the factors, the cost
helpers and one forward/backward over that chain; a subclass names its
format, holds its ranks and decomposes a dense conv (``from_conv``).
All stages stay trainable for fine-tuning (Alg. 1 line 13).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.functional import (
    conv2d_backward,
    conv2d_forward,
    conv_out_size,
    depthwise_conv2d_backward,
    depthwise_conv2d_forward,
    pointwise_conv_backward,
    pointwise_conv_forward,
)
from repro.nn.init import kaiming_normal, zeros
from repro.nn.module import Module, Parameter
from repro.tensor.formats import get_format
from repro.utils.rng import SeedLike, spawn_rngs
from repro.utils.validation import check_positive_int


class FactoredConv2d(Module):
    """A conv stored as its format's kernel chain (``self.chain``).

    Parameters are stored as:

    - ``w_in``  : ``(mid, C)``             — first 1x1 conv
    - ``core``  : ``(core_out, mid, R, S)`` for a dense core, or
      ``(mid, R, S)`` for a depthwise one (one filter per channel)
    - ``w_out`` : ``(N, out)``             — last 1x1 conv
    - ``bias``  : ``(N,)``                 — optional, applied last

    A subclass sets ``format`` to a registered
    :class:`~repro.tensor.formats.DecompFormat` name, stores its rank
    attributes before calling ``__init__``, and returns them from
    ``ranks`` in the format's rank order.
    """

    format = ""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        self.in_channels = check_positive_int("in_channels", in_channels)
        self.out_channels = check_positive_int("out_channels", out_channels)
        self.kernel_size = k = check_positive_int("kernel_size", kernel_size)
        self.stride = check_positive_int("stride", stride)
        if padding < 0:
            raise ValueError(f"padding must be >= 0, got {padding}")
        self.padding = int(padding)
        self.chain = ch = get_format(self.format).chain(self.ranks)

        r_in, r_core, r_out = spawn_rngs(seed, 3)
        self.w_in = Parameter(
            kaiming_normal((ch.mid, in_channels, 1, 1), seed=r_in)[:, :, 0, 0]
        )
        self.core = Parameter(
            kaiming_normal((ch.mid, 1, k, k), seed=r_core)[:, 0]
            if ch.depthwise
            else kaiming_normal((ch.core_out, ch.mid, k, k), seed=r_core)
        )
        self.w_out = Parameter(
            kaiming_normal((out_channels, ch.out, 1, 1), seed=r_out)[:, :, 0, 0]
        )
        self.bias: Optional[Parameter] = (
            Parameter(zeros((out_channels,))) if bias else None
        )
        self._cache = None

    @property
    def ranks(self) -> Tuple[int, ...]:
        """The format's rank tuple."""
        raise NotImplementedError

    @classmethod
    def _from_factors(cls, conv: Conv2d, w_in: np.ndarray, core: np.ndarray,
                      w_out: np.ndarray, **ranks: int) -> "FactoredConv2d":
        """A layer shaped like ``conv`` holding the given factors and
        ``conv``'s bias (the last stage is channel-linear, so the bias
        transfers unchanged)."""
        layer = cls(
            conv.in_channels, conv.out_channels, conv.kernel_size,
            stride=conv.stride, padding=conv.padding,
            bias=conv.bias is not None, seed=0, **ranks,
        )
        layer.w_in.data[...] = w_in
        layer.core.data[...] = core
        layer.w_out.data[...] = w_out
        if conv.bias is not None:
            layer.bias.data[...] = conv.bias.data
        return layer

    # -- shape/cost helpers ---------------------------------------------
    def output_shape(self, h: int, w: int) -> Tuple[int, int]:
        return (
            conv_out_size(h, self.kernel_size, self.stride, self.padding),
            conv_out_size(w, self.kernel_size, self.stride, self.padding),
        )

    def flops(self, h: int, w: int) -> int:
        """FLOPs of the executed chain (Sec. 3 complexity analysis)."""
        return get_format(self.format).layer_flops(self, h, w, self.ranks)

    def n_weight_params(self) -> int:
        """Parameter count (numerator comparison for Eq. 5)."""
        return int(self.w_in.size + self.core.size + self.w_out.size)

    def to_conv_weight(self) -> np.ndarray:
        """Reconstruct the equivalent dense kernel ``(N, C, R, S)``."""
        ch, k = self.chain, self.kernel_size
        if not ch.depthwise:
            # K[n,c,r,s] = sum_{d2,d1} w_out[n,d2] core[d2,d1,r,s] w_in[d1,c]
            return np.einsum("nd,defg,ec->ncfg", self.w_out.data,
                             self.core.data, self.w_in.data, optimize=True)
        # Channel (a, b) of the core feeds group a of the group-sum:
        # K[n,c,r,s] = sum_{a,b} w_out[n,a] w_in[(a,b),c] core[(a,b),r,s]
        groups = ch.core_out // ch.out
        return np.einsum(
            "na,abc,abrs->ncrs",
            self.w_out.data,
            self.w_in.data.reshape(ch.out, groups, self.in_channels),
            self.core.data.reshape(ch.out, groups, k, k),
            optimize=True,
        )

    def export_weights(
        self, dtype: np.dtype = np.dtype(np.float64)
    ) -> Dict[str, Optional[np.ndarray]]:
        """Contiguous snapshots of the factor weights.

        Used by the compile step: an :class:`~repro.inference.Executable`
        owns its weights, so later training/mutation of this module does
        not leak into an already-compiled artifact.
        """
        return {
            name: (np.array(p.data, dtype=dtype, order="C")
                   if p is not None else None)
            for name, p in (("w_in", self.w_in), ("core", self.core),
                            ("w_out", self.w_out), ("bias", self.bias))
        }

    # -- compute ---------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        ch = self.chain
        z1 = pointwise_conv_forward(x, self.w_in.data)
        if ch.depthwise:
            z2 = depthwise_conv2d_forward(
                z1, self.core.data, stride=self.stride, padding=self.padding
            )
            saved = z1
        else:
            z2, saved = conv2d_forward(
                z1, self.core.data, stride=self.stride, padding=self.padding
            )
        if ch.collapse is not None:
            b, _, oh, ow = z2.shape
            z2 = z2.reshape(b, ch.out, -1, oh, ow).sum(axis=2)
        y = pointwise_conv_forward(z2, self.w_out.data)
        self._cache = (x, saved, z1.shape, z2)
        if self.bias is not None:
            y = y + self.bias.data[None, :, None, None]
        return y

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        x, saved, z1_shape, z2 = self._cache
        ch = self.chain
        if self.bias is not None:
            self.bias.accumulate(grad.sum(axis=(0, 2, 3)))
        grad_z2, grad_w_out = pointwise_conv_backward(grad, z2, self.w_out.data)
        self.w_out.accumulate(grad_w_out)
        if ch.collapse is not None:
            # Group-sum backward: each summed channel gets the full
            # upstream gradient.
            grad_z2 = np.repeat(grad_z2, ch.core_out // ch.out, axis=1)
        if ch.depthwise:
            grad_z1, grad_core = depthwise_conv2d_backward(
                grad_z2, saved, self.core.data,
                stride=self.stride, padding=self.padding,
            )
        else:
            grad_z1, grad_core = conv2d_backward(
                grad_z2, saved, self.core.data, z1_shape,
                stride=self.stride, padding=self.padding,
            )
        self.core.accumulate(grad_core)
        grad_x, grad_w_in = pointwise_conv_backward(grad_z1, x, self.w_in.data)
        self.w_in.accumulate(grad_w_in)
        self._cache = None
        return grad_x

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.in_channels}, {self.out_channels}, "
            f"k={self.kernel_size}, ranks={self.ranks}, "
            f"s={self.stride}, p={self.padding})"
        )
