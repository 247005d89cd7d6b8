"""Tucker-format convolution layer (the paper's compressed layer).

Eqs. (2)-(4): a 1x1 conv ``C -> D1``, a dense RxS core ``D1 -> D2`` and
a 1x1 conv ``D2 -> N``.  ``TuckerConv2d.from_conv`` builds the layer
from a dense :class:`~repro.nn.conv.Conv2d` via partial Tucker (Alg. 1
line 12).
"""

from __future__ import annotations

from typing import Tuple

from repro.nn.conv import Conv2d
from repro.nn.factored_conv import FactoredConv2d
from repro.tensor.tucker import tucker2_conv_kernel
from repro.utils.rng import SeedLike
from repro.utils.validation import check_positive_int


class TuckerConv2d(FactoredConv2d):
    """Tucker-2 on the channel modes: ``w_in`` is U1 transposed
    ``(D1, C)``, ``core`` the ``(D2, D1, R, S)`` core, ``w_out`` U2
    ``(N, D2)``."""

    format = "tucker"

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
        super().__init__(in_channels, out_channels, kernel_size, stride,
                         padding, bias, seed)

    @property
    def ranks(self) -> Tuple[int, int]:
        """The ``tucker`` format's rank tuple ``(d1, d2)``."""
        return (self.rank_in, self.rank_out)

    @classmethod
    def from_conv(
        cls,
        conv: Conv2d,
        rank_out: int,
        rank_in: int,
        n_iter: int = 10,
    ) -> "TuckerConv2d":
        """Decompose a dense conv by HOOI-refined partial Tucker on the
        channel modes."""
        u_out, core, u_in = tucker2_conv_kernel(
            conv.weight.data, rank_out=rank_out, rank_in=rank_in, n_iter=n_iter
        )
        return cls._from_factors(conv, u_in.T, core, u_out,
                                 rank_in=rank_in, rank_out=rank_out)
