"""Deterministic GPU kernel latency simulator.

This is the stand-in for "run the kernel and time it" on a physical
A100/2080Ti.  A kernel execution is described by a
:class:`KernelLaunch` — grid size, block resource footprint, per-block
work, and global-memory traffic — and :func:`simulate_kernel` produces
a latency with a full breakdown.

Model structure (all terms deterministic in the launch description):

- *Wave quantization.*  Resident blocks per SM come from the occupancy
  calculator; the grid executes in ``ceil(n_blocks / (n_sms * b))``
  waves (paper Eq. 14).
- *Compute.*  Each thread has ``flops_per_block / threads`` of work.
  Per-thread throughput is the device lane rate, derated when the
  resident warp lanes on an SM exceed its FP32 lanes (issue
  throttling), and warp-quantized (a 48-thread block occupies two
  warps' issue slots).  This second-order structure is what creates
  the staircase of Fig. 4 and the oracle-vs-model gap of Sec. 5.5 —
  the *analytical* model in :mod:`repro.perfmodel` deliberately omits
  it, exactly as the paper's Eqs. (14)-(15) do.
- *Memory.*  DRAM time = bytes / bandwidth + per-wave DRAM latency;
  compute and memory overlap (roofline max), a standard assumption
  for direct convolutions [Park et al. 2016, cited as paper ref 31].
- *Synchronization.*  ``__syncthreads`` costs serialize per block.
- *Atomics.*  Atomic global writes are L2-serialized with a conflict
  multiplier (the TDC kernel's cross-C-tile atomicAdd, Listing 2
  line 29).
- *Launch overhead.*  Fixed per-kernel cost; this is what makes tiny
  Tucker layers unprofitable and motivates the θ-threshold rule of
  Sec. 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from typing import Dict, Optional

from repro.gpusim.device import DeviceSpec
from repro.gpusim.occupancy import Occupancy, compute_occupancy
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class KernelLaunch:
    """Resource/work description of one kernel launch."""

    n_blocks: int
    threads_per_block: int
    flops_per_block: float
    read_bytes: float               # total global-memory reads (kernel-wide)
    write_bytes: float              # total global-memory writes (kernel-wide)
    smem_per_block: int = 0
    regs_per_thread: int = 32
    syncs_per_block: int = 1        # __syncthreads executions per block
    atomic_bytes: float = 0.0       # subset of writes issued atomically
    atomic_conflict_degree: int = 1 # writers racing for the same address
    # Serialized global-memory round trips per block that the block
    # must wait on before proceeding (e.g. the per-C-iteration shared
    # memory staging of Listing 1).  Hidden by other resident warps
    # when occupancy allows; see ``simulate_kernel``.
    global_stalls_per_block: int = 0
    name: str = "kernel"

    def validate(self, device: DeviceSpec) -> None:
        check_positive_int("n_blocks", self.n_blocks)
        check_positive_int("threads_per_block", self.threads_per_block)
        if self.flops_per_block < 0:
            raise ValueError("flops_per_block must be >= 0")
        if self.read_bytes < 0 or self.write_bytes < 0:
            raise ValueError("memory traffic must be >= 0")
        if self.atomic_bytes < 0:
            raise ValueError("atomic_bytes must be >= 0")
        if self.atomic_conflict_degree < 1:
            raise ValueError("atomic_conflict_degree must be >= 1")
        if self.global_stalls_per_block < 0:
            raise ValueError("global_stalls_per_block must be >= 0")
        if self.threads_per_block > device.max_threads_per_block:
            raise ValueError(
                f"{self.name}: {self.threads_per_block} threads/block exceeds "
                f"device limit {device.max_threads_per_block}"
            )


@dataclass(frozen=True)
class LatencyBreakdown:
    """Simulated latency with per-component attribution (seconds)."""

    total: float
    compute: float
    memory: float
    sync: float
    atomic: float
    launch: float
    waves: int
    occupancy: Occupancy

    def as_dict(self) -> Dict[str, float]:
        return {
            "total": self.total,
            "compute": self.compute,
            "memory": self.memory,
            "sync": self.sync,
            "atomic": self.atomic,
            "launch": self.launch,
            "waves": float(self.waves),
        }


def simulate_kernel(
    device: DeviceSpec,
    launch: KernelLaunch,
    include_launch_overhead: bool = True,
) -> LatencyBreakdown:
    """Simulate one kernel launch and return its latency breakdown."""
    launch.validate(device)
    occ = compute_occupancy(
        device,
        threads_per_block=launch.threads_per_block,
        smem_per_block=launch.smem_per_block,
        regs_per_thread=launch.regs_per_thread,
    )
    if occ.blocks_per_sm == 0:
        raise ValueError(
            f"{launch.name}: block does not fit on {device.name} "
            f"({occ.limiting_factor})"
        )

    # Resident blocks per SM: capped by occupancy, but a small grid
    # spreads out (one block per SM until SMs are full).
    b_eff = min(occ.blocks_per_sm, max(1, ceil(launch.n_blocks / device.n_sms)))
    waves = max(1, ceil(launch.n_blocks / (device.n_sms * b_eff)))

    # Per-thread compute rate with warp-granular issue throttling.
    # An SM's aggregate FP32 rate is its peak derated by how far the
    # resident warps fall short of filling the issue pipelines
    # (warps_to_saturate); the per-thread share divides that by the
    # resident threads.  For saturated SMs this reduces to the classic
    # lanes/threads throttle; for under-occupied SMs it caps a lone
    # warp at the saturation share — small kernels are latency-bound,
    # which is what produces the Fig. 4 staircase.
    warps = ceil(launch.threads_per_block / device.warp_size)
    resident_warps = b_eff * warps
    sm_peak = device.fp32_lanes_per_sm * device.lane_rate
    per_thread_rate = sm_peak / (
        device.warp_size * max(resident_warps, device.warps_to_saturate)
    )
    per_thread_work = launch.flops_per_block / launch.threads_per_block
    block_time = per_thread_work / per_thread_rate if per_thread_work > 0 else 0.0
    compute_time = waves * block_time

    # Memory: kernel-wide traffic through DRAM plus wave startup latency.
    bytes_total = launch.read_bytes + launch.write_bytes
    memory_time = bytes_total / device.dram_bandwidth + waves * device.dram_latency

    # Synchronization: serialized within a block, so it stacks per wave.
    sync_time = waves * launch.syncs_per_block * device.sync_cost

    # Serialized global-memory stalls (e.g. per-iteration shared-memory
    # staging): each costs a fraction of the DRAM latency, hidden by
    # whatever other warps are resident on the SM.
    if launch.global_stalls_per_block > 0:
        hiding = max(1.0, min(16.0, float(b_eff * warps)))
        stall_unit = 0.35 * device.dram_latency / hiding
        sync_time += waves * launch.global_stalls_per_block * stall_unit

    # Atomics: L2 serialization with conflict multiplier.
    atomic_time = 0.0
    if launch.atomic_bytes > 0:
        conflict = 1.0 + 0.25 * (launch.atomic_conflict_degree - 1)
        atomic_time = launch.atomic_bytes * conflict / device.atomic_throughput

    launch_time = device.kernel_launch_overhead if include_launch_overhead else 0.0

    total = max(compute_time, memory_time) + sync_time + atomic_time + launch_time
    return LatencyBreakdown(
        total=total,
        compute=compute_time,
        memory=memory_time,
        sync=sync_time,
        atomic=atomic_time,
        launch=launch_time,
        waves=waves,
        occupancy=occ,
    )


def simulate_sequence(
    device: DeviceSpec, launches, include_launch_overhead: bool = True
) -> float:
    """Total latency of back-to-back kernel launches (e.g. a layer's
    three Tucker stages, or a whole network)."""
    total = 0.0
    for launch in launches:
        total += simulate_kernel(
            device, launch, include_launch_overhead=include_launch_overhead
        ).total
    return total
