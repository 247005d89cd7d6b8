"""TVM-style direct convolution (Listing 1 of the paper).

The scheme the paper contrasts against:

- Thread blocks tile the *output* over (H, W) and — at block
  granularity — over output channels N (TVM's ``blockIdx.z``); the
  input-channel dimension C is **not** split (the limitation Sec. 5.1
  highlights), so small-C Tucker cores under-utilize the GPU.
- Each thread owns one output pixel of the tile and loops over its
  block's TN output channels, keeping TN accumulators in registers.
- Every iteration of the C loop stages an input slice and a kernel
  slice in shared memory, requiring **two** ``__syncthreads`` per
  iteration (Listing 1 lines 9/12) — 2*C syncs per block, the
  synchronization overhead the TDC scheme avoids.

``TVMDirectKernel.tuned`` mimics TVM's auto-tuning: it exhaustively
tries the tiling candidates below by *simulated* latency and keeps the
best, which is how the paper's "TVM after tuning" baseline behaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Optional, Sequence, Tuple

from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import KernelLaunch
from repro.kernels.base import FLOAT_BYTES, ConvKernel, ConvShape

# Spatial tile / channel-block candidates explored by the tuner.
SPATIAL_CANDIDATES: Tuple[int, ...] = (4, 7, 8, 14, 16, 28, 32)
CHANNEL_CANDIDATES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass(frozen=True)
class TVMTiling:
    """TVM scheme tiling: output tile (TH, TW) and channel block TN."""

    th: int
    tw: int
    tn: int

    def clipped(self, shape: ConvShape) -> "TVMTiling":
        return TVMTiling(
            th=min(self.th, shape.h),
            tw=min(self.tw, shape.w),
            tn=min(self.tn, shape.n),
        )

    def __str__(self) -> str:
        return f"(TH={self.th},TW={self.tw},TN={self.tn})"


class TVMDirectKernel(ConvKernel):
    """Listing-1 direct convolution with a fixed tiling."""

    name = "tvm"

    def __init__(self, tiling: TVMTiling) -> None:
        self.tiling = tiling

    @classmethod
    def tuned(
        cls,
        shape: ConvShape,
        device: DeviceSpec,
        spatial: Sequence[int] = SPATIAL_CANDIDATES,
        channel: Sequence[int] = CHANNEL_CANDIDATES,
    ) -> "TVMDirectKernel":
        """Auto-tuned kernel: best candidate by simulated latency."""
        best: Optional[TVMDirectKernel] = None
        best_latency = float("inf")
        seen = set()
        for th in spatial:
            for tw in spatial:
                for tn in channel:
                    tiling = TVMTiling(th, tw, tn).clipped(shape)
                    key = (tiling.th, tiling.tw, tiling.tn)
                    if key in seen:
                        continue
                    seen.add(key)
                    kernel = cls(tiling)
                    try:
                        lat = kernel.latency(shape, device)
                    except ValueError:
                        continue
                    if lat < best_latency:
                        best_latency = lat
                        best = kernel
        if best is None:
            raise ValueError(f"no feasible TVM tiling for {shape} on {device.name}")
        return best

    def launches(self, shape: ConvShape, device: DeviceSpec) -> List[KernelLaunch]:
        t = self.tiling.clipped(shape)
        threads = t.th * t.tw
        if threads > device.max_threads_per_block:
            raise ValueError(
                f"TVM tile {t} needs {threads} threads/block, device max is "
                f"{device.max_threads_per_block}"
            )
        tiles_hw = ceil(shape.h / t.th) * ceil(shape.w / t.tw)
        n_nblocks = ceil(shape.n / t.tn)
        blocks = tiles_hw * n_nblocks

        halo = (t.th + shape.r - 1) * (t.tw + shape.s - 1)
        # One C-slice of input plus one kernel slice live in smem.
        smem = (halo + shape.r * shape.s * t.tn) * FLOAT_BYTES
        if smem > device.shared_mem_per_block:
            raise ValueError(
                f"TVM tile {t} needs {smem} B shared memory on {device.name}"
            )

        # Each thread computes TN outputs over the full C loop.
        flops_blk = 2.0 * t.th * t.tw * t.tn * shape.c * shape.r * shape.s
        # TN accumulators persist across the C loop (Listing 1 keeps
        # local_compute live), plus staging registers.
        regs = t.tn + 12

        # Input is re-staged by every output-channel block.
        vol_x = tiles_hw * n_nblocks * shape.c * halo
        vol_k = tiles_hw * shape.c * shape.r * shape.s * shape.n
        vol_y = shape.h * shape.w * shape.n
        return [
            KernelLaunch(
                n_blocks=blocks,
                threads_per_block=threads,
                flops_per_block=flops_blk,
                read_bytes=(vol_x + vol_k) * FLOAT_BYTES,
                write_bytes=vol_y * FLOAT_BYTES,
                smem_per_block=smem,
                regs_per_thread=min(regs, 255),
                syncs_per_block=2 * shape.c,   # two per C iteration
                # Each C iteration stages input + kernel slices from
                # global memory and blocks on them (Listing 1 lines
                # 9-12) — the stall the TDC scheme's one-shot staging
                # avoids.
                global_stalls_per_block=2 * shape.c,
                atomic_bytes=0.0,              # no cross-block races
                atomic_conflict_degree=1,
                name=f"tvm_conv{shape}{t}",
            )
        ]
