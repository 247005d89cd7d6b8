"""Simulated GPU device specifications.

The reproduction has no physical GPU, so every "measured" latency in
this repository is produced by a deterministic performance simulator
parameterized by one of these device specs.  The two presets mirror
the paper's evaluation platforms:

- **A100** (Ampere, SM80): 108 SMs, 64 FP32 lanes/SM @ ~1.41 GHz
  (19.5 TFLOP/s FMA peak), 80 GB HBM2e at ~2.0 TB/s, 2048 resident
  threads/SM, up to 32 resident blocks/SM, 164 KiB shared memory/SM.
- **RTX 2080 Ti** (Turing, SM75): 68 SMs, 64 FP32 lanes/SM @ ~1.545 GHz
  (13.4 TFLOP/s), 11 GB GDDR6 at 616 GB/s, 1024 resident threads/SM,
  16 resident blocks/SM, 64 KiB shared memory/SM.

Microarchitectural constants that matter to the paper's experiments
(kernel launch overhead, __syncthreads cost, atomic throughput) are
modeled with typical published magnitudes, not measured.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Dict


@dataclass(frozen=True)
class DeviceSpec:
    """Static description of a simulated GPU."""

    name: str
    n_sms: int
    fp32_lanes_per_sm: int          # FP32 CUDA cores per SM
    clock_ghz: float                # boost clock used for peak math
    dram_bandwidth: float           # bytes/second
    dram_latency: float             # seconds, first-access latency per wave
    max_threads_per_sm: int
    max_threads_per_block: int
    max_blocks_per_sm: int
    shared_mem_per_sm: int          # bytes
    shared_mem_per_block: int       # bytes
    registers_per_sm: int
    warp_size: int = 32
    # Resident warps an SM needs before its schedulers can fill their
    # issue pipelines; below this, per-thread throughput is capped at
    # the saturation point's share (this is what makes small-N kernels
    # latency-bound and flattens the low-N end of the Fig. 4 curves).
    warps_to_saturate: int = 2
    kernel_launch_overhead: float = 3.0e-6   # seconds per kernel launch
    sync_cost: float = 3.0e-8                # seconds per __syncthreads
    atomic_throughput: float = 2.0e11        # atomic bytes/second (L2-bound)
    # Fraction of top tiling candidates (by compute latency) the
    # analytical model keeps before applying the memory-latency filter;
    # Sec. 5.5 uses 5% on A100 and 15% on 2080Ti.
    model_top_fraction: float = 0.05

    @property
    def peak_flops(self) -> float:
        """FP32 FMA peak in FLOP/s (2 FLOPs per lane per cycle)."""
        return self.n_sms * self.fp32_lanes_per_sm * 2.0 * self.clock_ghz * 1e9

    @property
    def total_threads(self) -> int:
        """``GPU_ths`` in the paper: maximum resident threads."""
        return self.n_sms * self.max_threads_per_sm

    @property
    def lane_rate(self) -> float:
        """Per-lane FLOP/s (FMA)."""
        return 2.0 * self.clock_ghz * 1e9

    def fingerprint(self) -> str:
        """Content hash over every hardware parameter.

        Planner cache keys must distinguish two specs that share a
        ``name`` but differ in any parameter (a device sweep, a
        user-tweaked spec), so keys derive from this fingerprint and
        never from the display name alone.  The spec is frozen, so the
        hash is computed once and memoized.
        """
        cached = self.__dict__.get("_fingerprint")
        if cached is None:
            payload = ";".join(
                f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
            )
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
            object.__setattr__(self, "_fingerprint", cached)
        return cached

    def validate(self) -> None:
        if self.n_sms <= 0 or self.fp32_lanes_per_sm <= 0:
            raise ValueError("device must have positive SM/lane counts")
        if self.warp_size <= 0:
            raise ValueError("warp_size must be positive")
        if not 0 < self.model_top_fraction <= 1:
            raise ValueError("model_top_fraction must be in (0, 1]")


A100 = DeviceSpec(
    name="A100",
    n_sms=108,
    fp32_lanes_per_sm=64,
    clock_ghz=1.41,
    dram_bandwidth=2.0e12,
    dram_latency=1.0e-6,
    max_threads_per_sm=2048,
    max_threads_per_block=1024,
    max_blocks_per_sm=32,
    shared_mem_per_sm=164 * 1024,
    shared_mem_per_block=160 * 1024,
    registers_per_sm=65536,
    kernel_launch_overhead=3.0e-6,
    model_top_fraction=0.05,
)

RTX2080TI = DeviceSpec(
    name="2080Ti",
    n_sms=68,
    fp32_lanes_per_sm=64,
    clock_ghz=1.545,
    dram_bandwidth=6.16e11,
    dram_latency=1.4e-6,
    max_threads_per_sm=1024,
    max_threads_per_block=1024,
    max_blocks_per_sm=16,
    shared_mem_per_sm=64 * 1024,
    shared_mem_per_block=64 * 1024,
    registers_per_sm=65536,
    kernel_launch_overhead=4.0e-6,
    model_top_fraction=0.15,
)

DEVICES: Dict[str, DeviceSpec] = {
    "a100": A100,
    "A100": A100,
    "2080ti": RTX2080TI,
    "2080Ti": RTX2080TI,
    "rtx2080ti": RTX2080TI,
}


def get_device(name: str) -> DeviceSpec:
    """Look up a device preset by (case-tolerant) name."""
    key = name.strip()
    if key in DEVICES:
        return DEVICES[key]
    lowered = key.lower()
    if lowered in DEVICES:
        return DEVICES[lowered]
    raise KeyError(f"unknown device {name!r}; available: ['A100', '2080Ti']")
