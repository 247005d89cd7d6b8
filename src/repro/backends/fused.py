"""The fused whole-chain backend.

Registers ``"fused"`` as a seventh :class:`KernelBackend`: the same
protocol every per-stage core backend speaks (``supports`` /
``core_latency`` / ``tiling`` / ``kernel``), so ``auto`` dispatch,
planning and warm-up adopt the fused kernel with zero
special-casing.  The latency it reports is the fused chain's *core
stage* — intermediate activation traffic dropped (see
:mod:`repro.perfmodel.fused`); the pw1/pw2 plan entries
keep their full per-stage latencies, a deliberate overcharge that
keeps the comparison against per-stage backends conservative.

The backend additionally implements the optional ``dwcore_latency``
hook, so CP/TT depthwise middle stages participate in dispatch through
the same generic registry plumbing (:func:`repro.backends.registry.
dispatch_dwcore`).

When the planner selects ``"fused"`` for a site, the compile step
binds a :class:`~repro.inference.executable.CompiledFusedSite`, which
runs the site format's stage list like every other backend: the fused
choice shapes the simulated plan and the generated CUDA source, not
the host loop.
"""

from __future__ import annotations

from typing import Optional

from repro.backends.registry import KernelBackend, register_backend
from repro.gpusim.device import DeviceSpec
from repro.kernels.base import ConvKernel, ConvShape
from repro.kernels.fused import FusedCoreKernel, select_fused_tiling
from repro.perfmodel.fused import fused_core_latency, fused_dwcore_latency


@register_backend
class FusedBackend(KernelBackend):
    """The whole factored conv chain as one generated kernel."""

    name = "fused"
    description = (
        "fused pw1+core+pw2 chain kernel; intermediates stay in "
        "shared memory"
    )

    def supports(self, shape: ConvShape, device: DeviceSpec) -> bool:
        return select_fused_tiling(shape, device) is not None

    def core_latency(self, shape: ConvShape, device: DeviceSpec) -> float:
        return fused_core_latency(shape, device)

    def tiling(self, shape: ConvShape, device: DeviceSpec) -> Optional[str]:
        tiling = select_fused_tiling(shape, device)
        return None if tiling is None else str(tiling)

    def kernel(
        self,
        shape: ConvShape,
        device: DeviceSpec,
        tiling: Optional[str] = None,
    ) -> ConvKernel:
        return FusedCoreKernel(select_fused_tiling(shape, device))

    def dwcore_latency(
        self,
        shape: ConvShape,
        device: DeviceSpec,
        collapse_to: Optional[int] = None,
    ) -> Optional[float]:
        if select_fused_tiling(shape, device) is None:
            return None
        return fused_dwcore_latency(shape, device, collapse_to=collapse_to)
