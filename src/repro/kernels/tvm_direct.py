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

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import KernelLaunch, simulate_kernel
from repro.kernels.base import FLOAT_BYTES, ConvKernel, ConvShape, pad_input

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

    def run(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Functional tiled execution of the TVM scheme.

        Loops output tiles and, inside each, the C dimension (the
        shared-memory staging loop), accumulating TN channels at a
        time.
        """
        x, weight, shape = self._check_run_args(x, weight)
        t = self.tiling.clipped(shape)
        xp = pad_input(x, shape)
        y = np.zeros((shape.n, shape.h, shape.w), dtype=x.dtype)
        for n0 in range(0, shape.n, t.tn):
            n1 = min(n0 + t.tn, shape.n)
            for h0 in range(0, shape.h, t.th):
                hsz = min(t.th, shape.h - h0)
                for w0 in range(0, shape.w, t.tw):
                    wsz = min(t.tw, shape.w - w0)
                    acc = np.zeros((n1 - n0, hsz, wsz), dtype=x.dtype)
                    for c in range(shape.c):  # C loop with smem staging
                        smem_in = xp[c, h0 : h0 + hsz + shape.r - 1,
                                     w0 : w0 + wsz + shape.s - 1]
                        smem_k = weight[n0:n1, c]
                        for r in range(shape.r):
                            for s in range(shape.s):
                                acc += (
                                    smem_in[r : r + hsz, s : s + wsz][None]
                                    * smem_k[:, r, s][:, None, None]
                                )
                    y[n0:n1, h0 : h0 + hsz, w0 : w0 + wsz] = acc
        return y
