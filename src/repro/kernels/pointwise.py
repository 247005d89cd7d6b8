"""1x1 convolution kernel and auxiliary-layer cost models.

The Tucker-format layer's first/third stages are channel-mixing 1x1
convolutions, which the paper executes with cuDNN (Sec. 7.4: "we use
cuDNN to implement other layers (including 1x1 convolution, pooling,
etc.)").  A 1x1 conv is exactly a GEMM of (H*W) x C @ C x N, so the
model reuses the implicit-GEMM structure with GEMM-appropriate tiles.

Auxiliary layers (pooling, batchnorm+activation, fully connected) are
memory-bound elementwise/reduction kernels; their cost is traffic over
DRAM bandwidth plus launch overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Optional, Sequence

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import KernelLaunch, simulate_kernel
from repro.kernels.base import FLOAT_BYTES, ConvKernel, ConvShape
from repro.kernels.cudnn import (
    GEMM_CONFIGS,
    IMPLICIT_GEMM_CONFIGS,
    CuDNNGemmKernel,
    GemmConfig,
)


class PointwiseConvKernel(ConvKernel):
    """1x1 convolution as a GEMM (no im2col duplication).

    cuDNN routes 1x1 convs through the same IMPLICIT_GEMM tile
    repertoire as any other conv, so the default configuration set is
    the implicit-GEMM one — 1x1 stages of a Tucker layer are *not*
    magically efficient at small channel counts, which is why the
    θ-threshold rule exists.  Pass ``configs=GEMM_CONFIGS`` to model a
    hand-rolled cuBLAS-style path instead.
    """

    name = "pointwise"

    def __init__(
        self,
        config: Optional[GemmConfig] = None,
        configs: Optional[Sequence[GemmConfig]] = None,
    ) -> None:
        self.config = config
        self.configs = tuple(configs) if configs is not None else IMPLICIT_GEMM_CONFIGS

    def launches(self, shape: ConvShape, device: DeviceSpec) -> List[KernelLaunch]:
        if shape.r != 1 or shape.s != 1:
            raise ValueError(
                f"PointwiseConvKernel requires a 1x1 filter, got "
                f"{shape.r}x{shape.s}"
            )
        cfg = self.config
        if cfg is None:
            best, best_lat = None, float("inf")
            for candidate in self.configs:
                lat = PointwiseConvKernel(candidate).latency(shape, device)
                if lat < best_lat:
                    best, best_lat = candidate, lat
            cfg = best
        assert cfg is not None
        m = shape.h * shape.w
        n = shape.n
        k = shape.c
        k_per_split = ceil(k / cfg.split_k)
        row_tiles = ceil(m / cfg.tile_m)
        col_tiles = ceil(n / cfg.tile_n)
        blocks = row_tiles * col_tiles * cfg.split_k
        flops_blk = 2.0 * cfg.tile_m * cfg.tile_n * k_per_split
        k_panel = 16
        c_bytes = m * n * FLOAT_BYTES * cfg.split_k
        return [
            KernelLaunch(
                n_blocks=blocks,
                threads_per_block=cfg.threads,
                flops_per_block=flops_blk,
                read_bytes=shape.input_bytes() * col_tiles
                + shape.weight_bytes() * row_tiles,
                write_bytes=c_bytes,
                smem_per_block=(cfg.tile_m + cfg.tile_n) * k_panel * FLOAT_BYTES * 2,
                regs_per_thread=min(255, (cfg.tile_m * cfg.tile_n) // cfg.threads + 40),
                syncs_per_block=2 * ceil(k_per_split / k_panel),
                atomic_bytes=c_bytes if cfg.split_k > 1 else 0.0,
                atomic_conflict_degree=cfg.split_k,
                name=f"pointwise{shape}",
            )
        ]

    def run(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        x, weight, shape = self._check_run_args(x, weight)
        if shape.r != 1 or shape.s != 1:
            raise ValueError("PointwiseConvKernel requires a 1x1 filter")
        w_mat = weight[:, :, 0, 0]
        return np.einsum("nc,chw->nhw", w_mat, x, optimize=True)



def pointwise_latency(
    c: int, n: int, h: int, w: int, device: DeviceSpec,
    include_launch_overhead: bool = True,
) -> float:
    """Latency of a 1x1 conv ``C -> N`` on an HxW map."""
    shape = ConvShape(c=c, n=n, h=h, w=w, r=1, s=1)
    return PointwiseConvKernel().latency(
        shape, device, include_launch_overhead=include_launch_overhead
    )


def memory_bound_op_latency(
    read_bytes: float, write_bytes: float, device: DeviceSpec,
    include_launch_overhead: bool = True,
) -> float:
    """Latency of a memory-bound elementwise/reduction kernel."""
    if read_bytes < 0 or write_bytes < 0:
        raise ValueError("traffic must be >= 0")
    total = (read_bytes + write_bytes) / device.dram_bandwidth + device.dram_latency
    if include_launch_overhead:
        total += device.kernel_launch_overhead
    return total


def pooling_latency(
    channels: int, h: int, w: int, kernel: int, stride: int,
    device: DeviceSpec,
) -> float:
    """Pooling reads the window footprint and writes the reduced map."""
    oh = max(1, (h - kernel) // stride + 1)
    ow = max(1, (w - kernel) // stride + 1)
    read = channels * h * w * FLOAT_BYTES
    write = channels * oh * ow * FLOAT_BYTES
    return memory_bound_op_latency(read, write, device)


def batchnorm_relu_latency(channels: int, h: int, w: int,
                           device: DeviceSpec) -> float:
    """Fused BN+ReLU: read + write the activation once."""
    traffic = channels * h * w * FLOAT_BYTES
    return memory_bound_op_latency(traffic, traffic, device)


def fc_latency(in_features: int, out_features: int, device: DeviceSpec) -> float:
    """Batch-1 fully connected layer = GEMV, memory-bound on weights."""
    read = (in_features * out_features + in_features) * FLOAT_BYTES
    write = out_features * FLOAT_BYTES
    return memory_bound_op_latency(read, write, device)
