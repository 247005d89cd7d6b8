"""cuDNN-style baseline convolution kernels.

Models of the three cuDNN algorithms the paper benchmarks against
(Sec. 7.1): ``IMPLICIT_GEMM``, ``WINOGRAD`` and ``FFT``.  Each class
provides a launch description whose simulated latency reflects the
algorithm's known cost structure:

- **Implicit GEMM** pads the problem to fixed MxN tiles, so small-
  channel Tucker cores waste most of the tile (the under-utilization
  the paper identifies as cuDNN's weakness on compressed models).
  A small heuristic (like cuDNN's) picks the best tile/split-K config
  per problem.
- **Winograd F(2x2, 3x3)** trades 2.25x fewer MACs for transform
  overhead and batched GEMMs with K = C, which again collapse for
  small C.
- **FFT** pays the padded frequency-domain filter tensor
  (C*N*Hf*Wf complex words) — enormous for large images and the reason
  FFT trails everything in Figs. 6/7.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2
from typing import List, Optional, Tuple

from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import KernelLaunch
from repro.kernels.base import FLOAT_BYTES, ConvKernel, ConvShape

COMPLEX_BYTES = 8  # float32 complex


# ---------------------------------------------------------------------------
# Implicit GEMM
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GemmConfig:
    """One cuDNN-style GEMM tile configuration."""

    tile_m: int
    tile_n: int
    threads: int
    split_k: int = 1


# cuDNN's NCHW fp32 IMPLICIT_GEMM ships a small fixed repertoire of
# large tiles (optimized for full-size GEMMs); there is no split-K and
# no small-tile fallback, which is precisely why it under-utilizes on
# Tucker-core shapes (the paper's Figs. 6/7 observation).
IMPLICIT_GEMM_CONFIGS: Tuple[GemmConfig, ...] = (
    GemmConfig(128, 128, 256, 1),
    GemmConfig(128, 64, 256, 1),
)


class CuDNNGemmKernel(ConvKernel):
    """IMPLICIT_GEMM: conv as a single (M=H*W) x (N) x (K=C*R*S) GEMM."""

    name = "cudnn_gemm"

    def __init__(self, config: Optional[GemmConfig] = None) -> None:
        self.config = config

    def _pick_config(self, shape: ConvShape, device: DeviceSpec) -> GemmConfig:
        if self.config is not None:
            return self.config
        best, best_lat = None, float("inf")
        for cfg in IMPLICIT_GEMM_CONFIGS:
            kernel = CuDNNGemmKernel(cfg)
            lat = kernel.latency(shape, device)
            if lat < best_lat:
                best, best_lat = cfg, lat
        assert best is not None
        return best

    def launches(self, shape: ConvShape, device: DeviceSpec) -> List[KernelLaunch]:
        cfg = self.config or self._pick_config(shape, device)
        m = shape.h * shape.w
        n = shape.n
        k = shape.c * shape.r * shape.s
        k_per_split = ceil(k / cfg.split_k)
        row_tiles = ceil(m / cfg.tile_m)
        col_tiles = ceil(n / cfg.tile_n)
        blocks = row_tiles * col_tiles * cfg.split_k

        # Every block computes a full (padded) tile over its K range.
        flops_blk = 2.0 * cfg.tile_m * cfg.tile_n * k_per_split
        k_panel = 16
        smem = (cfg.tile_m + cfg.tile_n) * k_panel * FLOAT_BYTES * 2  # dbl buffer
        syncs = 2 * ceil(k_per_split / k_panel)
        regs = min(255, (cfg.tile_m * cfg.tile_n) // cfg.threads + 40)

        # A (implicit im2col) streams the input once per column tile;
        # the R*S duplication is absorbed by L2.  B (the filter) is
        # re-read per row tile.
        a_bytes = shape.input_bytes() * col_tiles
        b_bytes = shape.weight_bytes() * row_tiles
        c_bytes = m * n * FLOAT_BYTES * cfg.split_k
        launches = [
            KernelLaunch(
                n_blocks=blocks,
                threads_per_block=cfg.threads,
                flops_per_block=flops_blk,
                read_bytes=a_bytes + b_bytes,
                write_bytes=c_bytes,
                smem_per_block=smem,
                regs_per_thread=regs,
                syncs_per_block=syncs,
                # K-panel staging is double buffered, so stalls are
                # mostly hidden; charge one per panel and let the
                # engine's hiding factor absorb them.
                global_stalls_per_block=ceil(k_per_split / k_panel),
                atomic_bytes=c_bytes if cfg.split_k > 1 else 0.0,
                atomic_conflict_degree=cfg.split_k,
                name=f"cudnn_gemm{shape}",
            )
        ]
        return launches


# ---------------------------------------------------------------------------
# Winograd F(2x2, 3x3)
# ---------------------------------------------------------------------------

class CuDNNWinogradKernel(ConvKernel):
    """WINOGRAD: F(2x2, 3x3) minimal filtering (3x3 stride-1 only)."""

    name = "cudnn_winograd"

    GEMM_TILE_M = 32
    GEMM_TILE_N = 32
    THREADS = 128
    TRANSFORM_EFFICIENCY = 0.3  # transforms are add/shuffle heavy, not FMA
    # The V/M intermediates live in a (16, tile, channel) scatter
    # layout; writing V and reading M back are poorly coalesced.
    SCATTER_PENALTY = 2.0

    @staticmethod
    def _check_supported(shape: ConvShape) -> None:
        if shape.r != 3 or shape.s != 3:
            raise ValueError(
                f"Winograd F(2x2,3x3) requires a 3x3 filter, got "
                f"{shape.r}x{shape.s}"
            )

    def launches(self, shape: ConvShape, device: DeviceSpec) -> List[KernelLaunch]:
        """Four-stage Winograd pipeline, as cuDNN's non-fused algorithm
        runs it: filter transform, input transform, 16 batched GEMMs,
        output transform.  Each stage round-trips its intermediate
        through global memory."""
        self._check_supported(shape)
        tiles = ceil(shape.h / 2) * ceil(shape.w / 2)
        c, n = shape.c, shape.n

        v_bytes = 16 * tiles * c * FLOAT_BYTES   # transformed input
        u_bytes = 16 * c * n * FLOAT_BYTES       # transformed filter
        m_bytes = 16 * tiles * n * FLOAT_BYTES   # GEMM outputs

        launches: List[KernelLaunch] = []

        # Stage 1: filter transform U = G g G^T, one thread per (n, c).
        filt_threads = 128
        filt_blocks = max(1, ceil(c * n / filt_threads))
        launches.append(
            KernelLaunch(
                n_blocks=filt_blocks,
                threads_per_block=filt_threads,
                flops_per_block=(c * n * 240.0 / self.TRANSFORM_EFFICIENCY)
                / filt_blocks,
                read_bytes=shape.weight_bytes(),
                write_bytes=u_bytes,
                regs_per_thread=48,
                syncs_per_block=0,
                name=f"wino_filter{shape}",
            )
        )

        # Stage 2: input transform V = B^T d B, one thread per (tile, c).
        in_threads = 128
        in_blocks = max(1, ceil(tiles * c / in_threads))
        launches.append(
            KernelLaunch(
                n_blocks=in_blocks,
                threads_per_block=in_threads,
                flops_per_block=(tiles * c * 256.0 / self.TRANSFORM_EFFICIENCY)
                / in_blocks,
                read_bytes=shape.input_bytes(),
                write_bytes=v_bytes * self.SCATTER_PENALTY,
                regs_per_thread=48,
                syncs_per_block=0,
                name=f"wino_input{shape}",
            )
        )

        # Stage 3: 16 batched GEMMs of (tiles x C) @ (C x N).  K = C is
        # small for Tucker cores, so tiles are latency-bound.
        row_tiles = ceil(tiles / self.GEMM_TILE_M)
        col_tiles = ceil(n / self.GEMM_TILE_N)
        gemm_blocks = 16 * row_tiles * col_tiles
        k_panel = 16
        launches.append(
            KernelLaunch(
                n_blocks=gemm_blocks,
                threads_per_block=self.THREADS,
                flops_per_block=2.0 * self.GEMM_TILE_M * self.GEMM_TILE_N * c,
                read_bytes=v_bytes * col_tiles + u_bytes * row_tiles,
                write_bytes=m_bytes,
                smem_per_block=(self.GEMM_TILE_M + self.GEMM_TILE_N)
                * k_panel * FLOAT_BYTES * 2,
                regs_per_thread=48,
                syncs_per_block=2 * ceil(c / k_panel),
                global_stalls_per_block=ceil(c / k_panel),
                name=f"wino_gemm{shape}",
            )
        )

        # Stage 4: output transform Y = A^T m A, one thread per (tile, n).
        out_threads = 128
        out_blocks = max(1, ceil(tiles * n / out_threads))
        launches.append(
            KernelLaunch(
                n_blocks=out_blocks,
                threads_per_block=out_threads,
                flops_per_block=(tiles * n * 96.0 / self.TRANSFORM_EFFICIENCY)
                / out_blocks,
                read_bytes=m_bytes * self.SCATTER_PENALTY,
                write_bytes=shape.output_bytes(),
                regs_per_thread=48,
                syncs_per_block=0,
                name=f"wino_output{shape}",
            )
        )
        return launches


# ---------------------------------------------------------------------------
# FFT
# ---------------------------------------------------------------------------

class CuDNNFFTKernel(ConvKernel):
    """FFT convolution: frequency-domain pointwise products.

    Models cuDNN's FFT algorithm, which transforms the filter to the
    padded image size at call time — the C*N*Hf*Wf complex filter
    tensor is the dominant cost for large images.
    """

    name = "cudnn_fft"

    THREADS = 256
    FFT_EFFICIENCY = 0.22  # butterflies + twiddle loads are not FMA-dense

    def launches(self, shape: ConvShape, device: DeviceSpec) -> List[KernelLaunch]:
        hf = shape.h + shape.r - 1
        wf = shape.w + shape.s - 1
        logn = max(1.0, log2(hf * wf))
        fft_cost = 5.0 * hf * wf * logn  # flops per 2-D transform

        c, n = shape.c, shape.n
        # Forward FFTs: C for the input, C*N for the padded filters.
        fwd_flops = (c + c * n) * fft_cost
        # Pointwise complex multiply-accumulate over C, then N inverses.
        point_flops = 8.0 * hf * wf * c * n
        inv_flops = n * fft_cost
        total_flops = (fwd_flops + point_flops + inv_flops) / self.FFT_EFFICIENCY

        filt_freq = c * n * hf * wf * COMPLEX_BYTES
        x_freq = c * hf * wf * COMPLEX_BYTES
        y_freq = n * hf * wf * COMPLEX_BYTES
        read_bytes = (
            shape.input_bytes() + shape.weight_bytes()
            + filt_freq + x_freq + y_freq
        )
        write_bytes = filt_freq + x_freq + y_freq + shape.output_bytes()

        blocks = 4 * device.n_sms
        stage_names = ("fft_fwd", "fft_pointwise", "fft_inv")
        split = (0.45, 0.35, 0.20)
        launches = []
        for frac, stage in zip(split, stage_names):
            launches.append(
                KernelLaunch(
                    n_blocks=blocks,
                    threads_per_block=self.THREADS,
                    flops_per_block=total_flops * frac / blocks,
                    read_bytes=read_bytes * frac,
                    write_bytes=write_bytes * frac,
                    smem_per_block=8 * 1024,
                    regs_per_thread=64,
                    syncs_per_block=int(logn),
                    name=f"cudnn_{stage}{shape}",
                )
            )
        return launches
