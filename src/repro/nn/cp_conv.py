"""CP-format convolution layer (depthwise-separable chain).

A rank-``Q`` CP-decomposed conv runs as the Lebedev-style chain: a 1x1
conv ``C -> Q``, a depthwise RxS conv over the ``Q`` channels (the two
spatial CP factors fused into one filter per channel), and a 1x1 conv
``Q -> N``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.factored_conv import FactoredConv2d
from repro.tensor.cp import cp_conv_kernel
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int


class CPConv2d(FactoredConv2d):
    """CP with one shared rank: ``w_in`` is A_c transposed ``(Q, C)``,
    ``core`` holds A_r outer A_s per component ``(Q, R, S)``, ``w_out``
    is A_n scaled by the CP weights ``(N, Q)``."""

    format = "cp"

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
        self.rank = check_positive_int("rank", rank)
        super().__init__(in_channels, out_channels, kernel_size, stride,
                         padding, bias, seed)

    @property
    def ranks(self) -> Tuple[int]:
        """The ``cp`` format's rank tuple ``(q,)``."""
        return (self.rank,)

    @classmethod
    def from_conv(
        cls,
        conv: Conv2d,
        rank: int,
        n_iter: int = 60,
    ) -> "CPConv2d":
        """Decompose a dense conv by CP-ALS with shared rank ``rank``;
        the per-component CP weights fold into ``w_out``."""
        cp = cp_conv_kernel(conv.weight.data, rank=rank, n_iter=n_iter)
        a_n, a_c, a_r, a_s = cp.factors
        return cls._from_factors(
            conv, a_c.T, np.einsum("rq,sq->qrs", a_r, a_s, optimize=True),
            a_n * cp.weights[None, :], rank=rank,
        )
