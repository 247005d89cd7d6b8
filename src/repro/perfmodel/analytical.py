"""The paper's analytical latency model (Sec. 5.3-5.4, Eqs. 14-19).

These equations are implemented *verbatim* — including the
simplifications the paper makes (per-block peak proportional to the
block's thread share, kernel volume without the R*S factor in Eq. 16,
memory latency as volume over bandwidth).  The gap between this model
and the richer simulator in :mod:`repro.gpusim` is exactly the
oracle-vs-model gap of Sec. 5.5 (~25%), reproduced in
``benchmarks/bench_oracle_vs_model.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

import numpy as np

from repro.gpusim.batch import compute_occupancy_batch
from repro.gpusim.device import DeviceSpec
from repro.gpusim.occupancy import compute_occupancy
from repro.kernels.base import FLOAT_BYTES, ConvShape
from repro.kernels.tdc_direct import (
    Tiling,
    clip_tile_arrays,
    regs_per_thread,
    regs_per_thread_batch,
    smem_bytes,
    smem_bytes_batch,
)


@dataclass(frozen=True)
class AnalyticalEstimate:
    """Analytical latency estimates for one (shape, tiling) pair."""

    comp_latency: float         # seconds, Eq. 15
    memory_latency: float       # seconds, from Eq. 19 volume
    comp_latency_blk: float     # seconds per block
    comp_waves: float           # Eq. 14 (fractional below one wave)
    volume_total: float         # elements, Eq. 19
    occupancy: float            # fraction used in Eq. 14


def comp_latency_blk(shape: ConvShape, tiling: Tiling, device: DeviceSpec) -> float:
    """Per-block compute latency (Sec. 5.3).

    flops_blk = 2 (TH+R-1)(TW+S-1) TC N R S and
    blk_peak = GPU_peak * N / GPU_ths, giving

        comp_latency_blk = 2 (TH+R-1)(TW+S-1) TC GPU_ths R S / GPU_peak.
    """
    t = tiling.clipped(shape)
    return (
        2.0
        * (t.th + shape.r - 1)
        * (t.tw + shape.s - 1)
        * t.tc
        * device.total_threads
        * shape.r
        * shape.s
        / device.peak_flops
    )


def comp_waves(shape: ConvShape, tiling: Tiling, device: DeviceSpec) -> float:
    """Eq. 14: number of execution waves under the achieved occupancy.

    One clarification over the literal equation: when the whole grid
    fits in less than one wave, we keep the *fractional* fill instead
    of rounding up to 1.  With a hard ``ceil`` the model would rank
    every sub-wave tiling purely by its per-block FLOPs and always
    prefer degenerate 1-element tiles; the fractional reading makes
    sub-wave compute latency equal total work over achieved occupancy,
    which is clearly what lets the paper's selector function (their
    measured model-vs-oracle gap is only ~25%).  Above one wave the
    paper's ceil quantization applies unchanged — it is what creates
    the staircase of Fig. 4.
    """
    t = tiling.clipped(shape)
    num_blks = (
        ceil(shape.h / t.th) * ceil(shape.w / t.tw) * ceil(shape.c / t.tc)
    )
    occ = compute_occupancy(
        device,
        threads_per_block=shape.n,
        smem_per_block=smem_bytes(t, shape),
        regs_per_thread=regs_per_thread(t, shape),
    )
    occupancy = occ.fraction(device)
    if occupancy <= 0:
        raise ValueError(f"tiling {t} yields zero occupancy for {shape}")
    exact = num_blks * shape.n / (device.total_threads * occupancy)
    return float(ceil(exact)) if exact > 1.0 else exact


def comp_latency(shape: ConvShape, tiling: Tiling, device: DeviceSpec) -> float:
    """Eq. 15: total compute latency = waves x per-block latency."""
    return comp_waves(shape, tiling, device) * comp_latency_blk(
        shape, tiling, device
    )


def volume_kernel(shape: ConvShape, tiling: Tiling) -> float:
    """Eq. 16: kernel-tensor data movement (elements)."""
    t = tiling.clipped(shape)
    return ceil(shape.h / t.th) * ceil(shape.w / t.tw) * shape.c * shape.n


def volume_input(shape: ConvShape, tiling: Tiling) -> float:
    """Eq. 17: input-tensor data movement (elements)."""
    t = tiling.clipped(shape)
    return (
        ceil(shape.h / t.th)
        * ceil(shape.w / t.tw)
        * shape.c
        * (t.th + shape.r - 1)
        * (t.tw + shape.s - 1)
    )


def volume_output(shape: ConvShape, tiling: Tiling) -> float:
    """Eq. 18: output-tensor data movement (elements)."""
    t = tiling.clipped(shape)
    return shape.h * shape.w * shape.n * ceil(shape.c / t.tc)


def volume_total(shape: ConvShape, tiling: Tiling) -> float:
    """Eq. 19: total data-movement volume (elements)."""
    return (
        volume_input(shape, tiling)
        + volume_kernel(shape, tiling)
        + volume_output(shape, tiling)
    )


def memory_latency(shape: ConvShape, tiling: Tiling, device: DeviceSpec) -> float:
    """Memory latency estimate: Eq. 19 volume over DRAM bandwidth."""
    return volume_total(shape, tiling) * FLOAT_BYTES / device.dram_bandwidth


def comp_latency_blk_batch(
    shape: ConvShape, device: DeviceSpec, th, tw, tc
) -> np.ndarray:
    """Vectorized :func:`comp_latency_blk` over a tile-candidate grid.

    The batched Eq. 15 family mirrors the scalar expressions' float
    evaluation order, so each element is bit-identical to the scalar
    call for that candidate (the equivalence suite asserts it).
    """
    th, tw, tc = clip_tile_arrays(shape, th, tw, tc)
    return (
        2.0
        * (th + shape.r - 1)
        * (tw + shape.s - 1)
        * tc
        * device.total_threads
        * shape.r
        * shape.s
        / device.peak_flops
    )


def comp_waves_batch(
    shape: ConvShape, device: DeviceSpec, th, tw, tc
) -> np.ndarray:
    """Vectorized Eq. 14 (:func:`comp_waves`) over a candidate grid."""
    th, tw, tc = clip_tile_arrays(shape, th, tw, tc)
    num_blks = (-(-shape.h // th)) * (-(-shape.w // tw)) * (-(-shape.c // tc))
    blocks = compute_occupancy_batch(
        device,
        threads_per_block=np.full(len(th), shape.n, dtype=np.int64),
        smem_per_block=smem_bytes_batch(shape, th, tw, tc),
        regs_per_thread=regs_per_thread_batch(shape, th, tw),
    )
    occupancy = (blocks * shape.n) / device.max_threads_per_sm
    if np.any(occupancy <= 0):
        bad = int(np.argmax(occupancy <= 0))
        t = Tiling(int(th[bad]), int(tw[bad]), int(tc[bad]))
        raise ValueError(f"tiling {t} yields zero occupancy for {shape}")
    exact = num_blks * shape.n / (device.total_threads * occupancy)
    return np.where(exact > 1.0, np.ceil(exact), exact)


def comp_latency_batch(
    shape: ConvShape, device: DeviceSpec, th, tw, tc
) -> np.ndarray:
    """Vectorized Eq. 15 (:func:`comp_latency`) over a candidate grid."""
    return comp_waves_batch(shape, device, th, tw, tc) * comp_latency_blk_batch(
        shape, device, th, tw, tc
    )


def memory_latency_batch(
    shape: ConvShape, device: DeviceSpec, th, tw, tc
) -> np.ndarray:
    """Vectorized Eq. 19 volume over bandwidth (:func:`memory_latency`)."""
    th, tw, tc = clip_tile_arrays(shape, th, tw, tc)
    tiles_h = -(-shape.h // th)
    tiles_w = -(-shape.w // tw)
    vol_input = (
        tiles_h * tiles_w * shape.c
        * (th + shape.r - 1) * (tw + shape.s - 1)
    )
    vol_kernel = tiles_h * tiles_w * shape.c * shape.n
    vol_output = shape.h * shape.w * shape.n * (-(-shape.c // tc))
    total = vol_input + vol_kernel + vol_output
    return total * FLOAT_BYTES / device.dram_bandwidth


def shape_class(shape: ConvShape) -> str:
    """Coarse equivalence class of a core-conv problem.

    The measured-vs-simulated report (:mod:`repro.calibration`) labels
    each sample with it.  Classes group by filter extent (the
    algorithmic regime — Winograd/FFT/direct behave differently per
    R x S) and by the power-of-two bucket of useful FLOPs (the size
    regime — Eq. 14's wave quantization biases small and large
    problems differently).
    """
    return f"{shape.r}x{shape.s}/2^{int(log2(shape.flops()))}"


def estimate(shape: ConvShape, tiling: Tiling, device: DeviceSpec) -> AnalyticalEstimate:
    """All analytical quantities for one (shape, tiling) pair."""
    t = tiling.clipped(shape)
    occ = compute_occupancy(
        device,
        threads_per_block=shape.n,
        smem_per_block=smem_bytes(t, shape),
        regs_per_thread=regs_per_thread(t, shape),
    )
    waves = comp_waves(shape, t, device)
    blk = comp_latency_blk(shape, t, device)
    return AnalyticalEstimate(
        comp_latency=waves * blk,
        memory_latency=memory_latency(shape, t, device),
        comp_latency_blk=blk,
        comp_waves=waves,
        volume_total=volume_total(shape, t),
        occupancy=occ.fraction(device),
    )
