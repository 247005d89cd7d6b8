"""End-to-end inference latency estimation (the Figs. 8/9 harness).

``estimate_e2e`` produces the end-to-end variants for one model on one
device: the original network via cuDNN plus the TKD-compressed network
under every requested core backend.  By default those are the paper's
four compressed bars (``cudnn``, ``tvm``, ``tdc-oracle``,
``tdc-model``); any registered backend name — or ``"auto"``, the
per-layer fastest-registered dispatcher — can be requested through
``backends=``.

All variants share one hardware-aware rank plan (selected against the
device), mirroring the paper's setup where the same compressed model is
executed by different kernels.  Results are variant-keyed: an
:class:`E2EResult` holds a ``variants`` mapping that round-trips
arbitrary registered backends, with the historical five accessors
(``original``, ``tucker_cudnn``, ...) kept as properties.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.backends import PAPER_CORE_BACKENDS, validate_backend
from repro.codesign.pipeline import layer_shapes_from_spec
from repro.codesign.rank_selection import RankPlan, select_ranks
from repro.gpusim.device import DeviceSpec
from repro.inference.plan import ExecutionPlan, plan_dense_model, plan_tucker_model
from repro.models.arch_specs import ModelSpec

#: Key of the uncompressed-network variant in ``E2EResult.variants``.
ORIGINAL_VARIANT = "original"


def resolve_backend_list(
    backends: Optional[Sequence[str]],
) -> Tuple[str, ...]:
    """Validate and dedupe a requested backend list (fail fast).

    ``None`` means the paper's four compressed variants; order is
    preserved (it becomes bar/column order).
    """
    if backends is None:
        backends = PAPER_CORE_BACKENDS
    resolved: List[str] = []
    for name in backends:
        if name == ORIGINAL_VARIANT:
            raise ValueError(
                f"{ORIGINAL_VARIANT!r} is the uncompressed baseline, always "
                f"included; request core backends only"
            )
        validate_backend(name)
        if name not in resolved:
            resolved.append(name)
    if not resolved:
        raise ValueError("at least one core backend is required")
    return tuple(resolved)


@dataclass
class E2EResult:
    """End-to-end latencies (seconds) for one model/device pair.

    ``variants`` maps variant name -> total latency and always contains
    ``"original"`` plus one entry per requested core backend.  ``plans``
    keeps the underlying execution plans (same keys), so per-layer
    dispatch decisions — which backend ``auto`` picked where — stay
    inspectable after estimation.
    """

    model_name: str
    device_name: str
    budget: float
    variants: Dict[str, float]
    rank_plan: RankPlan
    plans: Dict[str, ExecutionPlan] = field(default_factory=dict)

    # -- generic accessors -------------------------------------------------

    def latency(self, variant: str) -> float:
        """Total latency of one variant (raises with the known names)."""
        try:
            return self.variants[variant]
        except KeyError:
            raise ValueError(
                f"unknown variant {variant!r}; expected one of "
                f"{sorted(self.variants)}"
            ) from None

    def backend_variants(self) -> Tuple[str, ...]:
        """The compressed variants, in estimation order."""
        return tuple(v for v in self.variants if v != ORIGINAL_VARIANT)

    def speedup(self, baseline: str, variant: str) -> float:
        """Latency ratio ``baseline / variant``."""
        return self.latency(baseline) / self.latency(variant)

    def as_milliseconds(self) -> Dict[str, float]:
        """All variants in milliseconds, under the historical key
        spelling: ``original`` stays, a core backend ``x-y`` becomes
        ``tucker_x_y`` (so the five legacy keys are unchanged)."""
        return {
            self._legacy_key(v): latency * 1e3
            for v, latency in self.variants.items()
        }

    @staticmethod
    def _legacy_key(variant: str) -> str:
        if variant == ORIGINAL_VARIANT:
            return variant
        return "tucker_" + variant.replace("-", "_")

    # -- historical accessors (the five fixed bars) ------------------------

    @property
    def original(self) -> float:
        return self.latency(ORIGINAL_VARIANT)

    @property
    def tucker_cudnn(self) -> float:
        return self.latency("cudnn")

    @property
    def tucker_tvm(self) -> float:
        return self.latency("tvm")

    @property
    def tucker_tdc_oracle(self) -> float:
        return self.latency("tdc-oracle")

    @property
    def tucker_tdc_model(self) -> float:
        return self.latency("tdc-model")

    def speedup_over_original(self, variant: str = "tdc-oracle") -> float:
        return self.speedup(ORIGINAL_VARIANT, variant)

    def speedup_over_tucker_cudnn(self, variant: str = "tdc-oracle") -> float:
        return self.speedup("cudnn", variant)

    def speedup_over_tucker_tvm(self, variant: str = "tdc-oracle") -> float:
        return self.speedup("tvm", variant)


def estimate_e2e(
    spec: ModelSpec,
    device: DeviceSpec,
    budget: float = 0.6,
    theta: float = 0.15,
    rank_step: int = 32,
    rank_plan: Optional[RankPlan] = None,
    backends: Optional[Sequence[str]] = None,
    formats: object = ("tucker",),
) -> E2EResult:
    """Estimate the end-to-end variants for a model spec.

    ``backends`` selects the compressed variants (default: the paper's
    four); names are validated against the registry *before* any
    planning work starts.  ``formats`` widens rank selection beyond
    Tucker (``"all"``/``"auto"`` or an explicit name list): each site
    then picks the fastest format under its budget share, and the
    compressed variants carry mixed Tucker/CP/TT kernel chains (the
    core backend only affects the Tucker cores — CP/TT middles always
    run the depthwise kernel).
    """
    backends = resolve_backend_list(backends)
    if rank_plan is None:
        layers = layer_shapes_from_spec(spec)
        if not layers:
            raise ValueError(f"{spec.name} has no decomposable convs")
        rank_plan = select_ranks(
            layers, device, budget=budget, theta=theta, rank_step=rank_step,
            formats=formats,
        )

    dense_plan = plan_dense_model(spec, device)
    variants: Dict[str, float] = {ORIGINAL_VARIANT: dense_plan.total_latency()}
    plans: Dict[str, ExecutionPlan] = {ORIGINAL_VARIANT: dense_plan}
    for backend in backends:
        plan = plan_tucker_model(
            spec, rank_plan, device, core_backend=backend
        )
        variants[backend] = plan.total_latency()
        plans[backend] = plan

    return E2EResult(
        model_name=spec.name,
        device_name=device.name,
        budget=budget,
        variants=variants,
        rank_plan=rank_plan,
        plans=plans,
    )

