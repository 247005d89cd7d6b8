"""Fused factored-conv backend: the whole chain in one kernel.

The paper's code generator emits *one* specialized kernel per
decomposed layer — the 1x1 input projection, the core conv, and the
1x1 output projection never round-trip through global memory.  This
module models that kernel for all three factored formats (Tucker / CP
/ TT):

- :class:`FusedTiling` + :func:`select_fused_tiling`: the shared-memory
  tiling scheme of the generated fused kernel (a ``TB x TW`` output
  tile, the projected ``z1`` slab staged ``TC`` channels at a time, the
  core accumulator tile resident until the output projection consumes
  it).  :func:`fused_smem_bytes` is the single accounting used by the
  launch description, the code generator, and feasibility checks.
- :class:`FusedCoreKernel`: a :class:`ConvKernel` whose launch
  description carries *no intermediate activation traffic* — the core
  stage of the fused chain reads only its weights (the ``z1`` slab is
  produced in shared memory by the pw1 stage and the accumulator is
  consumed in place by pw2).

The choice of this backend shapes the simulated plan and the generated
CUDA source; on the host a fused-planned site runs its format's stage
list like any other (:mod:`repro.inference.executable`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.engine import KernelLaunch
from repro.kernels.base import FLOAT_BYTES, ConvKernel, ConvShape, pad_input

# --------------------------------------------------------------------------
# Tiling: the generated fused kernel's shared-memory scheme.
# --------------------------------------------------------------------------
@dataclass(frozen=True)
class FusedTiling:
    """Shared-memory tiling of the fused chain kernel.

    Each block owns a ``tb x tw`` output tile.  The pw1 stage projects
    the input into a ``z1`` slab of ``tc`` core-input channels at a
    time (looped ``ceil(c / tc)`` times), the core stage accumulates
    into a smem tile holding *all* core-output channels for the block's
    positions, and the pw2 + bias epilogue drains that tile straight to
    the layer output — intermediates never touch global memory.
    """

    tb: int   # output rows per block
    tw: int   # output cols per block
    tc: int   # core-input channels staged per iteration

    def __str__(self) -> str:
        return f"fused(tb={self.tb},tw={self.tw},tc={self.tc})"


def fused_smem_bytes(shape: ConvShape, tiling: FusedTiling) -> int:
    """Shared memory of one fused block: the staged ``z1`` chunk plus
    the core accumulator tile.  This single accounting backs the launch
    description, :func:`select_fused_tiling` feasibility, and the
    generated source's static smem declaration."""
    z1 = tiling.tc * (tiling.tb + shape.r - 1) * (tiling.tw + shape.s - 1)
    acc = shape.n * tiling.tb * tiling.tw
    return (z1 + acc) * FLOAT_BYTES


_TILE_CANDIDATES = (32, 16, 8, 4, 2, 1)
_TC_CANDIDATES = (64, 32, 16, 8, 4, 2, 1)

_TILING_MEMO: Dict[tuple, Optional[FusedTiling]] = {}


def select_fused_tiling(
    shape: ConvShape, device: DeviceSpec
) -> Optional[FusedTiling]:
    """Largest feasible fused tiling for ``shape`` on ``device``.

    Feasible means the block's shared memory fits and at least one
    block is resident.  Preference order: biggest output tile first
    (``tb * tw``), then the biggest channel chunk (fewer staging
    iterations).  Returns None when even the ``1x1x1`` tile does not
    fit — only possible for pathologically wide core outputs.
    """
    key = shape.as_tuple() + (device.fingerprint(),)
    if key in _TILING_MEMO:
        return _TILING_MEMO[key]
    smem_cap = device.shared_mem_per_block
    best: Optional[FusedTiling] = None
    best_rank: Tuple[int, int] = (-1, -1)
    for tb in _TILE_CANDIDATES:
        if tb > shape.h and tb != 1:
            continue
        for tw in _TILE_CANDIDATES:
            if tw > shape.w and tw != 1:
                continue
            for tc in _TC_CANDIDATES:
                if tc > shape.c and tc != 1:
                    continue
                t = FusedTiling(tb=tb, tw=tw, tc=tc)
                if fused_smem_bytes(shape, t) > smem_cap:
                    continue
                rank = (tb * tw, tc)
                if rank > best_rank:
                    best, best_rank = t, rank
                break  # tc candidates descend; first fit is the best
    _TILING_MEMO[key] = best
    return best


def fused_core_launch(
    shape: ConvShape, device: DeviceSpec, tiling: FusedTiling
) -> KernelLaunch:
    """Launch description of the fused chain's *core stage*.

    The defining property vs. every per-stage core kernel: the
    intermediate activation traffic terms (Eqs. 16/18 input re-reads
    and output writes) are gone.  The stage reads only the core weights
    (once per spatial tile — the same tile-redundancy the TDC volume
    model charges) and writes nothing; the ``z1`` slab arrives through
    shared memory from the in-block pw1 stage and the accumulator tile
    is consumed in place by pw2.
    """
    tiles_h = ceil(shape.h / tiling.tb)
    tiles_w = ceil(shape.w / tiling.tw)
    stages = ceil(shape.c / tiling.tc)
    blocks = tiles_h * tiles_w
    flops_blk = 2.0 * tiling.tb * tiling.tw * shape.c * shape.n \
        * shape.r * shape.s
    weight_bytes = shape.c * shape.n * shape.r * shape.s * FLOAT_BYTES
    return KernelLaunch(
        n_blocks=blocks,
        threads_per_block=min(
            max(shape.n, 32), device.max_threads_per_block
        ),
        flops_per_block=flops_blk,
        read_bytes=float(blocks) * weight_bytes,
        write_bytes=0.0,
        smem_per_block=fused_smem_bytes(shape, tiling),
        regs_per_thread=shape.r * shape.s + 24,
        syncs_per_block=2 * stages,
        global_stalls_per_block=stages,
        name=f"fused_core{shape}",
    )


class FusedCoreKernel(ConvKernel):
    """The fused chain's core stage as a standalone :class:`ConvKernel`.

    ``launches`` carries the zero-intermediate-traffic description
    above; ``run`` executes the block's row-blocked shifted
    accumulation, so the backend's kernel factory validates against
    :func:`reference_conv` like every other registered scheme.
    """

    name = "fused-core"

    def __init__(self, tiling: Optional[FusedTiling] = None) -> None:
        self.tiling = tiling

    def _tiling_for(self, shape: ConvShape) -> FusedTiling:
        if self.tiling is not None:
            return self.tiling
        return FusedTiling(
            tb=min(8, shape.h), tw=min(32, shape.w), tc=min(16, shape.c)
        )

    def launches(
        self, shape: ConvShape, device: DeviceSpec
    ) -> List[KernelLaunch]:
        tiling = self.tiling or select_fused_tiling(shape, device)
        if tiling is None:
            raise ValueError(
                f"no feasible fused tiling for {shape} on {device.name}"
            )
        return [fused_core_launch(shape, device, tiling)]

    def run(self, x: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """Shifted accumulation in output-row blocks of ``tb`` rows:
        per block, one channel-mixing product per ``(r, s)`` tap."""
        x, weight, shape = self._check_run_args(x, weight)
        xpad = pad_input(x, shape)
        h, w = shape.h, shape.w
        tb = self._tiling_for(shape).tb
        out = np.zeros((shape.n, h, w), dtype=x.dtype)
        for o0 in range(0, h, tb):
            o1 = min(o0 + tb, h)
            for ri in range(shape.r):
                for si in range(shape.s):
                    out[:, o0:o1, :] += np.einsum(
                        "nc,chw->nhw", weight[:, :, ri, si],
                        xpad[:, o0 + ri : o1 + ri, si : si + w],
                        optimize=True,
                    )
        return out
