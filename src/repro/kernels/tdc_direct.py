"""The paper's Tucker-core convolution kernel (Listing 2).

Scheme recap (Sec. 5.2):

- The input is tiled over (H, W, C): ``ceil(H/TH) * ceil(W/TW) * ceil(C/TC)``
  thread blocks, each owning a ``(TH+R-1) x (TW+S-1) x TC`` input cube
  staged in shared memory with a single ``__syncthreads``.
- Each block runs ``N`` threads — one per output channel — so the
  input tile is fully reused across output channels and no intra-block
  atomics are needed.
- Each thread accumulates a ``TH x TW`` temporary in registers and
  finally ``atomicAdd``s it to global memory (blocks at different
  C-tiles race on the same outputs — the cross-C-tile conflict the
  simulator charges for).
- The kernel tensor is consumed in CRSN layout so per-thread loads
  coalesce across ``threadIdx.x = n`` (Sec. 5.2); the ablation bench
  flips this to NCRS to measure the cost of uncoalesced loads.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List

import numpy as np

from repro.gpusim.batch import LaunchBatch, compute_occupancy_batch
from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import KernelLaunch
from repro.gpusim.occupancy import compute_occupancy
from repro.kernels.base import FLOAT_BYTES, ConvKernel, ConvShape, pad_input
from repro.utils.validation import check_positive_int

# CUDA caps a thread at 255 registers; beyond ~224 the temp_result
# array spills to local memory and the scheme stops making sense.
MAX_REGS_PER_THREAD = 224
# Fixed register overhead (indices, pointers, loop counters).
REG_OVERHEAD = 16
# Uncoalesced NCRS kernel loads cost ~a full 32-lane transaction per
# element; CRSN loads are fully coalesced (Sec. 5.2).
UNCOALESCED_PENALTY = 8.0


@dataclass(frozen=True)
class Tiling:
    """TDC kernel tiling parameters ``(TH, TW, TC)``."""

    th: int
    tw: int
    tc: int

    def __post_init__(self) -> None:
        check_positive_int("th", self.th)
        check_positive_int("tw", self.tw)
        check_positive_int("tc", self.tc)

    def clipped(self, shape: ConvShape) -> "Tiling":
        """Clip tile extents to the problem size."""
        return Tiling(
            th=min(self.th, shape.h),
            tw=min(self.tw, shape.w),
            tc=min(self.tc, shape.c),
        )

    def __str__(self) -> str:
        return f"(TH={self.th},TW={self.tw},TC={self.tc})"


def smem_bytes(tiling: Tiling, shape: ConvShape) -> int:
    """Shared memory held by one block: the staged input cube."""
    return (
        tiling.tc
        * (tiling.th + shape.r - 1)
        * (tiling.tw + shape.s - 1)
        * FLOAT_BYTES
    )


def regs_per_thread(tiling: Tiling, shape: ConvShape) -> int:
    """Register footprint: TH*TW accumulators + R*S kernel + overhead."""
    return tiling.th * tiling.tw + shape.r * shape.s + REG_OVERHEAD


def n_blocks(tiling: Tiling, shape: ConvShape) -> int:
    return (
        ceil(shape.h / tiling.th)
        * ceil(shape.w / tiling.tw)
        * ceil(shape.c / tiling.tc)
    )


def is_feasible(tiling: Tiling, shape: ConvShape, device: DeviceSpec) -> bool:
    """Whether this tiling can launch at all on the device."""
    t = tiling.clipped(shape)
    if shape.n > device.max_threads_per_block:
        return False
    if smem_bytes(t, shape) > device.shared_mem_per_block:
        return False
    if regs_per_thread(t, shape) > MAX_REGS_PER_THREAD:
        return False
    # The whole block must fit an SM's register file / shared memory —
    # zero achievable occupancy means the kernel cannot launch.
    occ = compute_occupancy(
        device,
        threads_per_block=shape.n,
        smem_per_block=smem_bytes(t, shape),
        regs_per_thread=regs_per_thread(t, shape),
    )
    return occ.blocks_per_sm >= 1


def clip_tile_arrays(shape: ConvShape, th, tw, tc):
    """Validate and clip candidate tile arrays to the problem size."""
    th = np.asarray(th, dtype=np.int64)
    tw = np.asarray(tw, dtype=np.int64)
    tc = np.asarray(tc, dtype=np.int64)
    if not (th.shape == tw.shape == tc.shape) or th.ndim != 1:
        raise ValueError("th/tw/tc must be equal-length 1-D arrays")
    if np.any(th <= 0) or np.any(tw <= 0) or np.any(tc <= 0):
        raise ValueError("tile extents must be positive")
    return (
        np.minimum(th, shape.h),
        np.minimum(tw, shape.w),
        np.minimum(tc, shape.c),
    )


def smem_bytes_batch(shape: ConvShape, th, tw, tc) -> np.ndarray:
    """Array mirror of :func:`smem_bytes` over clipped tile arrays."""
    return tc * (th + shape.r - 1) * (tw + shape.s - 1) * FLOAT_BYTES


def regs_per_thread_batch(shape: ConvShape, th, tw) -> np.ndarray:
    """Array mirror of :func:`regs_per_thread` over clipped tile arrays."""
    return th * tw + shape.r * shape.s + REG_OVERHEAD


def is_feasible_batch(
    shape: ConvShape, device: DeviceSpec, th, tw, tc
) -> np.ndarray:
    """Vectorized :func:`is_feasible`: one bool per candidate tiling.

    Accepts unclipped tile arrays (they are clipped exactly as the
    scalar path clips) and never raises for infeasible candidates —
    they simply come back ``False``.
    """
    th, tw, tc = clip_tile_arrays(shape, th, tw, tc)
    if shape.n > device.max_threads_per_block:
        return np.zeros(len(th), dtype=bool)
    smem = smem_bytes_batch(shape, th, tw, tc)
    regs = regs_per_thread_batch(shape, th, tw)
    ok = (smem <= device.shared_mem_per_block) & (regs <= MAX_REGS_PER_THREAD)
    # Occupancy only for candidates that pass the block-level limits;
    # the others get a safely-clipped footprint and are masked anyway.
    blocks = compute_occupancy_batch(
        device,
        threads_per_block=np.full(len(th), shape.n, dtype=np.int64),
        smem_per_block=np.where(ok, smem, 0),
        regs_per_thread=np.where(ok, regs, 0),
    )
    return ok & (blocks >= 1)


def tdc_launch_batch(
    shape: ConvShape,
    device: DeviceSpec,
    th,
    tw,
    tc,
    crsn_layout: bool = True,
    name: str = "tdc_core",
    pre_checked: bool = False,
) -> LaunchBatch:
    """Launch descriptions for a whole tiling-candidate grid at once.

    Array mirror of :meth:`TDCDirectKernel.launches` — per-candidate
    ``flops_per_block`` / ``read_bytes`` / ``write_bytes`` / ``smem`` /
    ``regs`` arrays with the same integer/float arithmetic, so feeding
    the result to :func:`repro.gpusim.batch.simulate_kernels_batch`
    reproduces the scalar per-candidate latencies bit for bit.  Raises
    if any candidate is infeasible; callers that already masked the
    grid with :func:`is_feasible_batch` pass ``pre_checked=True`` to
    skip the redundant occupancy pass (the selectors' hot path).
    """
    th, tw, tc = clip_tile_arrays(shape, th, tw, tc)
    if not pre_checked:
        feasible = is_feasible_batch(shape, device, th, tw, tc)
        if not np.all(feasible):
            bad = int(np.argmax(~feasible))
            t = Tiling(int(th[bad]), int(tw[bad]), int(tc[bad]))
            raise ValueError(
                f"tiling {t} infeasible for shape {shape} on {device.name}"
            )

    tiles_h = -(-shape.h // th)
    tiles_w = -(-shape.w // tw)
    n_ctiles = -(-shape.c // tc)
    tiles_hw = tiles_h * tiles_w
    blocks = tiles_hw * n_ctiles
    halo_h = th + shape.r - 1
    halo_w = tw + shape.s - 1

    flops_blk = 2.0 * halo_h * halo_w * tc * shape.n * shape.r * shape.s

    vol_x = tiles_hw * shape.c * halo_h * halo_w
    vol_k = tiles_hw * shape.c * shape.n * shape.r * shape.s
    read_bytes = ((vol_x + vol_k) * FLOAT_BYTES).astype(np.float64)  # repro: ignore[dtype-promotion] -- latency model runs in float64 by design (matches the scalar simulator)
    if not crsn_layout:
        read_bytes = read_bytes + vol_k * FLOAT_BYTES * (UNCOALESCED_PENALTY - 1.0)

    vol_y = shape.h * shape.w * shape.n * n_ctiles
    write_bytes = (vol_y * FLOAT_BYTES).astype(np.float64)  # repro: ignore[dtype-promotion] -- latency model runs in float64 by design (matches the scalar simulator)

    n_cands = len(th)
    return LaunchBatch(
        n_blocks=blocks,
        threads_per_block=np.full(n_cands, shape.n, dtype=np.int64),
        flops_per_block=flops_blk,
        read_bytes=read_bytes,
        write_bytes=write_bytes,
        smem_per_block=smem_bytes_batch(shape, th, tw, tc),
        regs_per_thread=regs_per_thread_batch(shape, th, tw),
        syncs_per_block=np.ones(n_cands, dtype=np.int64),
        atomic_bytes=write_bytes,
        atomic_conflict_degree=n_ctiles,
        global_stalls_per_block=np.ones(n_cands, dtype=np.int64),
        name=f"{name}{shape}",
    )


class TDCDirectKernel(ConvKernel):
    """The TDC core-convolution kernel with a fixed tiling.

    Tiling selection lives in :mod:`repro.perfmodel.tiling`; this class
    describes and executes the kernel for a *given* tiling.
    """

    name = "tdc_direct"

    def __init__(self, tiling: Tiling, crsn_layout: bool = True) -> None:
        self.tiling = tiling
        self.crsn_layout = bool(crsn_layout)

    def launches(self, shape: ConvShape, device: DeviceSpec) -> List[KernelLaunch]:
        t = self.tiling.clipped(shape)
        if not is_feasible(t, shape, device):
            raise ValueError(
                f"tiling {t} infeasible for shape {shape} on {device.name}"
            )
        blocks = n_blocks(t, shape)
        tiles_hw = ceil(shape.h / t.th) * ceil(shape.w / t.tw)
        n_ctiles = ceil(shape.c / t.tc)
        halo_h = t.th + shape.r - 1
        halo_w = t.tw + shape.s - 1

        # Paper Eq. for flops_blk: the halo positions are *computed*
        # (Listing 2 iterates every smem cell and scatters), so the
        # per-block FLOPs include the halo overcompute.
        flops_blk = 2.0 * halo_h * halo_w * t.tc * shape.n * shape.r * shape.s

        # Eq. 17: every (h,w) tile re-reads its halo for each C tile.
        vol_x = tiles_hw * shape.c * halo_h * halo_w
        # Eq. 16 counts ceil(H/TH)*ceil(W/TW)*C*N kernel elements; each
        # block physically loads TC*R*S*N words so we keep the R*S
        # factor the equation folds away.
        vol_k = tiles_hw * shape.c * shape.n * shape.r * shape.s
        read_bytes = (vol_x + vol_k) * FLOAT_BYTES
        if not self.crsn_layout:
            # NCRS layout: per-thread kernel loads stride by C*R*S and
            # cannot coalesce, inflating effective DRAM transactions.
            read_bytes += vol_k * FLOAT_BYTES * (UNCOALESCED_PENALTY - 1.0)

        # Eq. 18: each C tile atomically writes the full output.
        vol_y = shape.h * shape.w * shape.n * n_ctiles
        write_bytes = vol_y * FLOAT_BYTES

        return [
            KernelLaunch(
                n_blocks=blocks,
                threads_per_block=shape.n,
                flops_per_block=flops_blk,
                read_bytes=read_bytes,
                write_bytes=write_bytes,
                smem_per_block=smem_bytes(t, shape),
                regs_per_thread=regs_per_thread(t, shape),
                syncs_per_block=1,
                global_stalls_per_block=1,  # single one-shot staging
                atomic_bytes=write_bytes,
                atomic_conflict_degree=n_ctiles,
                name=f"tdc_core{shape}{t}",
            )
        ]

    def run(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Functional block-tiled execution mirroring Listing 2.

        Iterates thread blocks (C-tile, H-tile, W-tile); each block
        stages its padded input cube ("shared memory"), accumulates a
        per-thread TH x TW temporary across (c, r, s), and adds it into
        the global output (the atomicAdd).  Must agree with
        :func:`repro.kernels.base.reference_conv` bit-for-bit up to
        float summation order.
        """
        x, weight, shape = self._check_run_args(x, weight)
        t = self.tiling.clipped(shape)
        xp = pad_input(x, shape)
        y = np.zeros((shape.n, shape.h, shape.w), dtype=x.dtype)
        for c0 in range(0, shape.c, t.tc):
            c1 = min(c0 + t.tc, shape.c)
            for h0 in range(0, shape.h, t.th):
                hsz = min(t.th, shape.h - h0)
                for w0 in range(0, shape.w, t.tw):
                    wsz = min(t.tw, shape.w - w0)
                    # Stage the input cube (shared memory load + sync).
                    smem = xp[c0:c1, h0 : h0 + hsz + shape.r - 1,
                              w0 : w0 + wsz + shape.s - 1]
                    temp = np.zeros((shape.n, hsz, wsz), dtype=x.dtype)
                    for r in range(shape.r):
                        for s in range(shape.s):
                            patch = smem[:, r : r + hsz, s : s + wsz]
                            temp += np.einsum(
                                "chw,nc->nhw",
                                patch,
                                weight[:, c0:c1, r, s],
                                optimize=True,
                            )
                    # atomicAdd into the global output.
                    y[:, h0 : h0 + hsz, w0 : w0 + wsz] += temp
        return y
