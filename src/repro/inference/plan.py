"""Execution plans: map every layer of a model spec to kernels.

A plan is the repro-side analogue of the paper's generated C++/CUDA
inference program: an ordered list of kernel invocations with their
simulated latencies.  Two builders cover the Figs. 8/9 configurations:

- :func:`plan_dense_model` — the original network, all convs through a
  chosen backend (cuDNN IMPLICIT_GEMM for the paper's baseline).
- :func:`plan_tucker_model` — the TKD-compressed network under a
  :class:`~repro.codesign.rank_selection.RankPlan`; each decomposed
  conv expands into 1x1 -> core -> 1x1 where the core backend is any
  name in the :mod:`repro.backends` registry (``tdc-model``,
  ``tdc-oracle``, ``tvm``, ``cudnn``, ...) or ``"auto"``, which picks
  the fastest registered backend *per layer* and records its choice on
  the planned kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.backends import (
    dispatch_core,
    dispatch_dwcore,
    get_backend,
    validate_backend,
)
from repro.codesign.rank_selection import RankPlan
from repro.gpusim.device import DeviceSpec
from repro.kernels.base import ConvShape
from repro.kernels.depthwise import dwcore_latency
from repro.kernels.pointwise import (
    batchnorm_relu_latency,
    fc_latency,
    pointwise_latency,
    pooling_latency,
)
from repro.models.arch_specs import LayerSpec, ModelSpec
from repro.nn.module import Module
from repro.tensor.formats import Chain, get_format, resolve_formats


@dataclass(frozen=True)
class PlannedKernel:
    """One kernel invocation in an execution plan.

    ``backend`` and ``tiling`` record which registered backend (and
    which tiling/config, when the backend exposes one) produced the
    latency — for ``"core"`` kernels this is the dispatch decision,
    which under ``auto`` varies per layer.

    ``parallel`` records the compile-time worker-pool decision
    (:mod:`repro.perfmodel.parallel`): ``True`` on every kernel of a
    site that shards its forward across lanes when the plan is
    compiled with ``threads > 1``.  Plans built by the planner always
    carry ``False``; :func:`~repro.inference.executable.compile_plan`
    annotates a copy so the planner's output stays cacheable.
    """

    layer: str
    # "conv" | "pointwise" | "core" | "dwcore" | "pool" | "fc" | "bn_relu"
    # ("dwcore" is the depthwise middle stage of a CP/TT chain; for TT
    # its latency also folds in the group-sum collapse)
    kind: str
    latency: float     # seconds, includes launch overhead
    backend: Optional[str] = None
    tiling: Optional[str] = None
    parallel: bool = False


@dataclass
class ExecutionPlan:
    """Ordered kernel schedule with total-latency accounting."""

    model_name: str
    device_name: str
    variant: str
    kernels: List[PlannedKernel] = field(default_factory=list)

    def total_latency(self) -> float:
        return sum(k.latency for k in self.kernels)

    def latency_by_kind(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for k in self.kernels:
            out[k.kind] = out.get(k.kind, 0.0) + k.latency
        return out

    def backend_counts(self) -> Dict[str, int]:
        """How many core convs each backend won (insertion order).

        Counts dense-core *and* depthwise-middle (``dwcore``) wins —
        both resolve through the backend registry.  For a
        fixed-backend plan this is a single entry; under ``auto`` it
        summarizes the per-layer dispatch decisions.
        """
        out: Dict[str, int] = {}
        for k in self.kernels:
            if k.kind in ("core", "dwcore") and k.backend is not None:
                out[k.backend] = out.get(k.backend, 0) + 1
        return out

    def n_kernels(self) -> int:
        return len(self.kernels)

    def parallel_kernels(self) -> int:
        """Kernels on sites compiled for worker-pool sharding."""
        return sum(1 for k in self.kernels if k.parallel)


def _chain_kernels(
    name: str, chain: Chain, c: int, n: int, h: int, w: int,
    oh: int, ow: int, k: int, device: DeviceSpec, core_backend: str,
) -> List[PlannedKernel]:
    """``<name>.pw1`` / ``.core`` / ``.pw2`` for one factored conv
    ``C=c -> N=n`` with a ``k x k`` core, input extent ``h x w`` and
    output extent ``oh x ow``.  A dense core dispatches through the
    backend registry (kind ``"core"``); a depthwise core (with TT's
    group-sum folded in) through :func:`dispatch_dwcore` (kind
    ``"dwcore"``)."""
    shape = ConvShape(c=chain.mid, n=chain.core_out, h=oh, w=ow, r=k, s=k)
    if chain.depthwise:
        kind = "dwcore"
        dispatch = dispatch_dwcore(
            shape, device,
            dwcore_latency(shape, device, collapse_to=chain.collapse),
            collapse_to=chain.collapse,
            backend=core_backend,
        )
    else:
        kind = "core"
        dispatch = dispatch_core(shape, device, core_backend)
    return [
        PlannedKernel(
            layer=f"{name}.pw1", kind="pointwise",
            latency=pointwise_latency(c, chain.mid, h, w, device),
        ),
        PlannedKernel(
            layer=f"{name}.core", kind=kind, latency=dispatch.latency,
            backend=dispatch.backend, tiling=dispatch.tiling,
        ),
        PlannedKernel(
            layer=f"{name}.pw2", kind="pointwise",
            latency=pointwise_latency(chain.out, n, oh, ow, device),
        ),
    ]


def _dense_conv_latency(layer: LayerSpec, device: DeviceSpec) -> float:
    """Latency of one dense conv through cuDNN-style kernels."""
    if layer.kernel == 1:
        return pointwise_latency(
            layer.in_channels, layer.out_channels,
            layer.out_height, layer.out_width, device,
        )
    shape = ConvShape(
        c=layer.in_channels, n=layer.out_channels,
        h=layer.out_height, w=layer.out_width,
        r=layer.kernel, s=layer.kernel,
    )
    # Dense layers run the paper's baseline kernel, resolved through
    # the registry like every other latency lookup.
    return get_backend("cudnn").core_latency(shape, device)


def _aux_latency(layer: LayerSpec, device: DeviceSpec) -> Optional[PlannedKernel]:
    if layer.kind == "pool":
        return PlannedKernel(
            layer=layer.name, kind="pool",
            latency=pooling_latency(
                layer.in_channels, layer.height, layer.width,
                layer.kernel, layer.stride, device,
            ),
        )
    if layer.kind == "fc":
        return PlannedKernel(
            layer=layer.name, kind="fc",
            latency=fc_latency(layer.in_channels, layer.out_channels, device),
        )
    return None


def plan_dense_model(
    spec: ModelSpec, device: DeviceSpec, include_bn_relu: bool = True
) -> ExecutionPlan:
    """The original (uncompressed) network, convs via cuDNN."""
    plan = ExecutionPlan(
        model_name=spec.name, device_name=device.name, variant="original-cudnn"
    )
    for layer in spec.layers:
        if layer.kind == "conv":
            plan.kernels.append(
                PlannedKernel(
                    layer=layer.name,
                    kind="pointwise" if layer.kernel == 1 else "conv",
                    latency=_dense_conv_latency(layer, device),
                )
            )
            if include_bn_relu:
                plan.kernels.append(
                    PlannedKernel(
                        layer=f"{layer.name}.bn_relu", kind="bn_relu",
                        latency=batchnorm_relu_latency(
                            layer.out_channels, layer.out_height,
                            layer.out_width, device,
                        ),
                    )
                )
        else:
            aux = _aux_latency(layer, device)
            if aux is not None:
                plan.kernels.append(aux)
    return plan


def plan_model(
    model: Module,
    device: DeviceSpec,
    image_hw: Tuple[int, int],
    in_channels: int = 3,
    core_backend: str = "auto",
    model_name: Optional[str] = None,
    sites: Optional[List["LayerSite"]] = None,
    formats: object = "auto",
) -> ExecutionPlan:
    """Execution plan for a *trainable* model, kernels named after its
    modules.

    This is the cold half of the compile/execute split: every dense
    :class:`~repro.nn.conv.Conv2d` plans as one baseline (cuDNN) conv
    kernel, and every factored conv expands into ``<name>.pw1`` /
    ``<name>.core`` / ``<name>.pw2`` — exactly the shapes
    :func:`repro.inference.compile_plan` later binds to numeric
    kernels.  A dense core (Tucker's) is dispatched through the
    backend registry; a depthwise core (CP's, TT's) is the depthwise
    stage (kind ``"dwcore"``, resolved by
    :func:`repro.backends.dispatch_dwcore` — the standalone depthwise
    kernel unless a registered backend such as ``fused`` offers the
    stage cheaper, with TT's group-sum folded into the latency either
    way).  Kernel layer names
    are the model's dotted module names, so the plan round-trips to
    the module tree.

    ``formats`` restricts which factored formats the model may
    contain: ``"auto"``/``"all"`` (default) accepts every registered
    format; an explicit name or list raises if the model carries a
    factored site outside it.

    ``sites`` takes a pre-traced inventory (from
    :func:`repro.models.introspection.trace_layer_sites` with the same
    ``image_hw``/``in_channels``) so warm-up, planning, and compilation
    can share one traced forward pass.
    """
    from repro.models.introspection import trace_layer_sites

    validate_backend(core_backend)
    allowed_formats = resolve_formats(formats)
    if sites is None:
        sites = trace_layer_sites(model, image_hw, in_channels=in_channels)
    if not sites:
        raise ValueError(
            f"model {model_name or type(model).__name__} has no conv "
            f"layers reachable from a ({in_channels}, {image_hw[0]}, "
            f"{image_hw[1]}) input; nothing to plan"
        )
    for site in sites:
        if site.is_factored and site.format not in allowed_formats:
            raise ValueError(
                f"layer {site.name!r} is in format {site.format!r} but "
                f"plan_model was restricted to formats "
                f"{list(allowed_formats)}"
            )
    plan = ExecutionPlan(
        model_name=model_name or type(model).__name__,
        device_name=device.name,
        variant=f"model-{core_backend}",
    )
    for site in sites:
        mod = site.module
        oh, ow = mod.output_shape(site.height, site.width)
        if site.is_factored:
            plan.kernels.extend(_chain_kernels(
                site.name, mod.chain, mod.in_channels, mod.out_channels,
                site.height, site.width, oh, ow, mod.kernel_size, device,
                core_backend,
            ))
        elif mod.kernel_size == 1:
            plan.kernels.append(
                PlannedKernel(
                    layer=site.name, kind="pointwise",
                    latency=pointwise_latency(
                        mod.in_channels, mod.out_channels, oh, ow, device,
                    ),
                )
            )
        else:
            shape = ConvShape(
                c=mod.in_channels, n=mod.out_channels, h=oh, w=ow,
                r=mod.kernel_size, s=mod.kernel_size,
            )
            plan.kernels.append(
                PlannedKernel(
                    layer=site.name, kind="conv",
                    latency=get_backend("cudnn").core_latency(
                        shape, device
                    ),
                    backend="cudnn",
                )
            )
    return plan


def plan_tucker_model(
    spec: ModelSpec,
    rank_plan: RankPlan,
    device: DeviceSpec,
    core_backend: str = "tdc-model",
    include_bn_relu: bool = True,
) -> ExecutionPlan:
    """The compressed network under a rank plan (any formats mix).

    Layers the plan decomposed run as their format's kernel chain;
    skipped layers and non-decomposable layers run dense.  The 1x1
    stages always go through cuDNN (the paper's fair-comparison
    setup).  A Tucker core goes through the registry: any registered
    backend name, or ``"auto"`` to pick the fastest registered backend
    per layer (the winner is recorded on each core
    :class:`PlannedKernel`).  CP/TT middle stages (kind ``"dwcore"``)
    resolve through :func:`repro.backends.dispatch_dwcore` under the
    same ``core_backend`` policy.
    """
    # Fail fast: an unknown backend raises here, with the registry's
    # known names, not mid-plan at the first decomposed conv.
    validate_backend(core_backend)
    plan_formats = sorted(
        {d.format for d in rank_plan.decisions if d.decomposed}
    ) or ["tucker"]
    if not spec.decomposable_convs(min_channels=1):
        # Silently emitting a compressed "variant" with zero core convs
        # (identical to the dense plan) hides a configuration mistake.
        raise ValueError(
            f"{spec.name} has no decomposable conv layers (spatial KxK "
            f"convs with K > 1); a {'/'.join(plan_formats)} plan would "
            f"contain no core kernels — use plan_dense_model for this "
            f"model"
        )
    decisions = {d.layer.name: d for d in rank_plan.decisions}
    plan = ExecutionPlan(
        model_name=spec.name, device_name=device.name,
        variant=f"tucker-{core_backend}",
    )
    for layer in spec.layers:
        if layer.kind == "conv":
            decision = decisions.get(layer.name)
            if decision is not None and decision.decomposed:
                plan.kernels.extend(_chain_kernels(
                    layer.name,
                    get_format(decision.format).chain(decision.ranks),
                    layer.in_channels, layer.out_channels,
                    layer.height, layer.width,
                    layer.out_height, layer.out_width, layer.kernel,
                    device, core_backend,
                ))
            else:
                plan.kernels.append(
                    PlannedKernel(
                        layer=layer.name,
                        kind="pointwise" if layer.kernel == 1 else "conv",
                        latency=_dense_conv_latency(layer, device),
                    )
                )
            if include_bn_relu:
                plan.kernels.append(
                    PlannedKernel(
                        layer=f"{layer.name}.bn_relu", kind="bn_relu",
                        latency=batchnorm_relu_latency(
                            layer.out_channels, layer.out_height,
                            layer.out_width, device,
                        ),
                    )
                )
        else:
            aux = _aux_latency(layer, device)
            if aux is not None:
                plan.kernels.append(aux)
    return plan
