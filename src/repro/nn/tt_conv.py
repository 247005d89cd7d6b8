"""TT-format convolution layer (grouped depthwise-separable chain).

A TT decomposition of the ``(N, C, R*S)`` kernel reshaping runs as a
1x1 conv ``C -> r1*r2`` (core G1), a depthwise RxS conv where channel
``(a, b)`` carries spatial core ``G2[b]``, a group-sum ``r1*r2 -> r1``
and a 1x1 conv ``r1 -> N`` (core G0).  The narrow last projection is
where TT beats CP on latency when output channels dominate.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.factored_conv import FactoredConv2d
from repro.tensor.tt import tt_conv_kernel
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int


class TTConv2d(FactoredConv2d):
    """TT with internal ranks ``(r1, r2)``: ``w_in`` is G1 ``(r1*r2,
    C)`` with channel ``(a, b) = a*r2 + b``, ``core`` holds ``G2[b]``
    on channel ``(a, b)`` ``(r1*r2, R, S)``, ``w_out`` is G0 ``(N,
    r1)``."""

    format = "tt"

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
        self.rank1 = check_positive_int("rank1", rank1)
        self.rank2 = check_positive_int("rank2", rank2)
        super().__init__(in_channels, out_channels, kernel_size, stride,
                         padding, bias, seed)

    @property
    def ranks(self) -> Tuple[int, int]:
        """The ``tt`` format's rank tuple ``(r1, r2)``."""
        return (self.rank1, self.rank2)

    @classmethod
    def from_conv(
        cls,
        conv: Conv2d,
        rank1: int,
        rank2: int,
    ) -> "TTConv2d":
        """Decompose a dense conv by TT-SVD.

        TT-SVD may truncate below the requested ranks (r1 is capped by
        the output-channel count, r2 by ``min(r1*C, R*S)``); the layer
        is built with the ranks actually achieved.
        """
        tt = tt_conv_kernel(conv.weight.data, max_ranks=(rank1, rank2))
        r1, r2 = tt.ranks
        g0, g1, g2 = tt.cores  # (1, N, r1), (r1, C, r2), (r2, R*S, 1)
        k = conv.kernel_size
        return cls._from_factors(
            conv,
            g1.transpose(0, 2, 1).reshape(r1 * r2, conv.in_channels),
            np.tile(g2[:, :, 0].reshape(r2, k, k), (r1, 1, 1)),
            g0[0],
            rank1=r1, rank2=r2,
        )
