"""Depthwise convolution kernel (CP/TT middle stage).

The CP and TT conv chains replace Tucker's dense core conv with a
depthwise RxS conv: each channel convolves with its own filter, no
channel mixing.  Arithmetic intensity is R*S MACs per output element
regardless of channel count, so the kernel is memory-bound on every
modeled device — the launch description reflects that (small
flops_per_block, traffic-dominated).

Weight shape is ``(C, R, S)`` — 3-D, unlike the dense-core kernels —
so this kernel lives outside the dense-core backend registry and is
priced directly by the planner for ``dwcore`` plan entries.
"""

from __future__ import annotations

from math import ceil
from typing import List, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import KernelLaunch
from repro.kernels.base import (
    FLOAT_BYTES,
    ConvKernel,
    ConvShape,
    execution_dtype,
    pad_input,
)


class DepthwiseConvKernel(ConvKernel):
    """Depthwise "same" convolution: ``(C,H,W) x (C,R,S) -> (C,H,W)``.

    The :class:`ConvShape` describes the problem with ``c == n`` (one
    output channel per input channel); ``h, w`` is the output extent,
    input implicitly zero-padded as with every core kernel.
    """

    name = "depthwise"

    def launches(self, shape: ConvShape, device: DeviceSpec) -> List[KernelLaunch]:
        if shape.c != shape.n:
            raise ValueError(
                f"depthwise conv needs c == n, got c={shape.c}, n={shape.n}"
            )
        tile_h = tile_w = 16
        blocks = shape.c * ceil(shape.h / tile_h) * ceil(shape.w / tile_w)
        flops_blk = 2.0 * tile_h * tile_w * shape.r * shape.s
        # Each block reads its haloed input tile plus one R*S filter and
        # writes one output tile.
        read_blk = (
            (tile_h + shape.r - 1) * (tile_w + shape.s - 1)
            + shape.r * shape.s
        ) * FLOAT_BYTES
        write_blk = tile_h * tile_w * FLOAT_BYTES
        return [
            KernelLaunch(
                n_blocks=blocks,
                threads_per_block=256,
                flops_per_block=flops_blk,
                read_bytes=blocks * read_blk,
                write_bytes=blocks * write_blk,
                smem_per_block=(tile_h + shape.r - 1)
                * (tile_w + shape.s - 1)
                * FLOAT_BYTES,
                regs_per_thread=32,
                syncs_per_block=1,
                name=f"depthwise{shape}",
            )
        ]

    # -- functional execution -------------------------------------------
    def _check_depthwise_args(
        self, x: np.ndarray, weight: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, ConvShape]:
        # The shared _check_run_args demands 4-D (N,C,R,S) weights;
        # depthwise weights are (C,R,S), so validate locally.
        x = np.asarray(x)
        weight = np.asarray(weight)
        dtype = execution_dtype(x, weight)
        x = np.asarray(x, dtype=dtype)
        weight = np.asarray(weight, dtype=dtype)
        if x.ndim != 3:
            raise ValueError(f"input must be (C,H,W), got {x.shape}")
        if weight.ndim != 3:
            raise ValueError(f"weight must be (C,R,S), got {weight.shape}")
        if weight.shape[0] != x.shape[0]:
            raise ValueError(
                f"channel mismatch: input C={x.shape[0]}, "
                f"weight C={weight.shape[0]}"
            )
        shape = ConvShape(
            c=x.shape[0], n=x.shape[0], h=x.shape[1], w=x.shape[2],
            r=weight.shape[1], s=weight.shape[2],
        )
        return x, weight, shape

    def run(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Tap loop over the zero-padded input: one multiply-add per
        ``(r, s)`` filter tap, every channel at once."""
        x, weight, shape = self._check_depthwise_args(x, weight)
        xp = pad_input(x, shape)
        h, w = shape.h, shape.w
        out = np.zeros((shape.c, h, w), dtype=x.dtype)
        for i in range(shape.r):
            for j in range(shape.s):
                out += xp[:, i : i + h, j : j + w] * weight[:, i, j, None, None]
        return out


def depthwise_latency(
    channels: int, h: int, w: int, kernel: int, device: DeviceSpec,
    include_launch_overhead: bool = True,
) -> float:
    """Latency of a depthwise KxK conv over ``channels`` on an HxW map."""
    shape = ConvShape(c=channels, n=channels, h=h, w=w, r=kernel, s=kernel)
    return DepthwiseConvKernel().latency(
        shape, device, include_launch_overhead=include_launch_overhead
    )
