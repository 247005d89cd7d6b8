"""Analytical latency of the fused factored-conv chain stages.

The per-stage performance model charges every core kernel the full
Eq. 16-18 traffic: haloed input re-reads, weight loads, and the output
writeback.  A fused chain kernel produces its core input *in shared
memory* (the pw1 stage) and consumes its accumulator in place (the
pw2 + bias epilogue), so the intermediate activation read/write terms
vanish from the core stage — only the weight traffic (with the usual
per-spatial-tile redundancy) remains.  That traffic asymmetry is what
lets ``auto`` dispatch actually *prefer* the fused backend on
memory-bound cores without any planner special-casing.

Both entries are memoized per (shape, device, collapse) in the
memory-only ``fused_latency`` plan cache — planning sweeps revisit the
same shapes constantly.
"""

from __future__ import annotations

from math import ceil
from typing import Optional

from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import KernelLaunch, simulate_kernel
from repro.kernels.base import FLOAT_BYTES, ConvShape
from repro.kernels.fused import (
    FusedTiling,
    fused_core_launch,
    fused_smem_bytes,
    select_fused_tiling,
)
from repro.planning.cache import PlanCache

_LATENCY_CACHE = PlanCache("fused_latency", maxsize=8192)


def fused_core_latency(shape: ConvShape, device: DeviceSpec) -> float:
    """Simulated latency of the fused chain's Tucker-core stage.

    Raises ``ValueError`` when no fused tiling fits the device (the
    backend's ``supports`` gates on the same selection, so dispatch
    never sees this).
    """
    key = ("core",) + shape.as_tuple() + (device.fingerprint(),)
    hit = _LATENCY_CACHE.get(key)
    if hit is not None:
        return hit
    tiling = select_fused_tiling(shape, device)
    if tiling is None:
        raise ValueError(
            f"no feasible fused tiling for core shape {shape} on "
            f"{device.name}"
        )
    latency = simulate_kernel(
        device, fused_core_launch(shape, device, tiling)
    ).total
    return _LATENCY_CACHE.put(key, latency)


def fused_dwcore_latency(
    shape: ConvShape,
    device: DeviceSpec,
    collapse_to: Optional[int] = None,
) -> float:
    """Simulated latency of a fused CP/TT middle stage.

    The depthwise filter applies per channel inside the block (one
    multiply-add per tap, ``tc`` channels at a time), and TT's
    group-sum collapses the block tile *before* the epilogue — in the
    per-stage path that collapse alone is a full read + write of the
    depthwise output, here it is free of global traffic.  What remains:
    the (tiny) depthwise weights per spatial tile, and the compute.
    """
    key = (
        ("dwcore",) + shape.as_tuple()
        + (collapse_to, device.fingerprint())
    )
    hit = _LATENCY_CACHE.get(key)
    if hit is not None:
        return hit
    tiling = select_fused_tiling(shape, device)
    if tiling is None:
        raise ValueError(
            f"no feasible fused tiling for dwcore shape {shape} on "
            f"{device.name}"
        )
    tiles_h = ceil(shape.h / tiling.tb)
    tiles_w = ceil(shape.w / tiling.tw)
    stages = ceil(shape.c / tiling.tc)
    blocks = tiles_h * tiles_w
    # Depthwise: R*S MACs per element over the block's channels, plus
    # the group-sum adds for TT (collapse_to < c).
    flops_blk = 2.0 * tiling.tb * tiling.tw * shape.c * shape.r * shape.s
    if collapse_to is not None and collapse_to < shape.c:
        flops_blk += tiling.tb * tiling.tw * shape.c
    weight_bytes = shape.c * shape.r * shape.s * FLOAT_BYTES
    launch = KernelLaunch(
        n_blocks=blocks,
        threads_per_block=min(
            max(shape.c, 32), device.max_threads_per_block
        ),
        flops_per_block=flops_blk,
        read_bytes=float(blocks) * weight_bytes,
        write_bytes=0.0,
        smem_per_block=fused_smem_bytes(shape, tiling),
        regs_per_thread=shape.r * shape.s + 24,
        syncs_per_block=2 * stages,
        global_stalls_per_block=stages,
        name=f"fused_dwcore{shape}",
    )
    latency = simulate_kernel(device, launch).total
    return _LATENCY_CACHE.put(key, latency)


__all__ = [
    "FusedTiling",
    "fused_core_latency",
    "fused_dwcore_latency",
    "fused_smem_bytes",
    "select_fused_tiling",
]
