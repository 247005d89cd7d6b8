"""Depthwise convolution kernel (CP/TT middle stage).

The CP and TT conv chains replace Tucker's dense core conv with a
depthwise RxS conv: each channel convolves with its own filter, no
channel mixing.  Arithmetic intensity is R*S MACs per output element
regardless of channel count, so the kernel is memory-bound on every
modeled device — the launch description reflects that (small
flops_per_block, traffic-dominated).

Weight shape is ``(C, R, S)`` — 3-D, unlike the dense-core kernels —
so this kernel lives outside the dense-core backend registry and is
priced directly (:func:`dwcore_latency`) by rank selection and the
planners for ``dwcore`` plan entries.
"""

from __future__ import annotations

from math import ceil
from typing import List, Optional

from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import KernelLaunch
from repro.kernels.base import FLOAT_BYTES, ConvKernel, ConvShape
from repro.kernels.pointwise import memory_bound_op_latency


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


def dwcore_latency(
    shape: ConvShape, device: DeviceSpec, collapse_to: Optional[int] = None
) -> float:
    """Latency of a CP/TT middle stage: the depthwise conv of ``shape``
    (``c == n``, output extent ``h x w``), plus for TT the
    memory-bound group-sum that reads all ``shape.c`` maps and writes
    ``collapse_to`` of them."""
    lat = DepthwiseConvKernel().latency(shape, device)
    if collapse_to is not None and collapse_to < shape.c:
        map_bytes = shape.h * shape.w * FLOAT_BYTES
        lat += memory_bound_op_latency(
            shape.c * map_bytes, collapse_to * map_bytes, device
        )
    return lat
