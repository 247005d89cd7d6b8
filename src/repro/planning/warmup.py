"""Backend warm-up and batched planning over the plan caches.

Every planner memoizes on first use in a
:class:`~repro.planning.cache.PlanCache` (tiling selections,
performance tables, TVM tuning, fused tilings and latencies), so
nothing here computes a value that the planner would not compute
itself.

- :func:`warm_backends` / :func:`warm_model_backends` resolve each
  kernel backend's core latency once per (shape, device) pair, which
  fills that backend's caches before the deploy path plans.
- :func:`plan_many` runs Algorithm 1 over a ``specs x devices x
  budgets`` grid (``repro cache warm``).  Plans are keyed on the device
  *fingerprint*, not its display name: a device sweep legitimately
  batches several same-named specs.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.codesign.pipeline import layer_shapes_from_spec
from repro.codesign.rank_selection import RankPlan, select_ranks
from repro.gpusim.device import DeviceSpec
from repro.kernels.base import ConvShape
from repro.models.arch_specs import ModelSpec

# Key of one batched plan: (spec fingerprint, device fingerprint,
# budget).  Fingerprints — not display names — so that a sweep over
# same-named device variants, or the same architecture at two image
# sizes, never collides.  Build keys with :func:`plan_key`.
PlanKey = Tuple[str, str, float]


def warm_backends(
    shapes_devices: Sequence[Tuple[ConvShape, DeviceSpec]],
    backends: Sequence[str],
) -> Dict[str, int]:
    """Resolve every requested kernel backend over (shape, device) pairs.

    Each name is validated against the registry; ``"auto"`` expands to
    *all* registered backends (auto dispatch evaluates every one of
    them per core shape, so its warm-up must too).  Each backend gets
    one ``core_latency`` call per distinct pair it supports, on the
    base spec, which is what fills its memoized state.  A backend that
    finds no feasible config (``ValueError``) is skipped for that pair,
    as ``auto`` dispatch skips it.  Returns the number of pairs
    resolved per backend name.
    """
    from repro.backends import (
        AUTO_BACKEND,
        backend_names,
        base_device,
        get_backend,
        validate_backend,
    )

    names: List[str] = []
    for name in backends:
        validate_backend(name)
        expanded = backend_names() if name == AUTO_BACKEND else (name,)
        for expanded_name in expanded:
            if expanded_name not in names:
                names.append(expanded_name)
    pairs: Dict[tuple, Tuple[ConvShape, DeviceSpec]] = {}
    for shape, device in shapes_devices:
        base = base_device(device)
        pairs.setdefault(shape.as_tuple() + (base.fingerprint(),),
                         (shape, base))
    resolved: Dict[str, int] = {}
    for name in names:
        backend = get_backend(name)
        count = 0
        for shape, device in pairs.values():
            if not backend.supports(shape, device):
                continue
            try:
                backend.core_latency(shape, device)
            except ValueError:
                continue
            count += 1
        resolved[name] = count
    return resolved


def warm_model_backends(
    model,
    device: DeviceSpec,
    image_hw: Tuple[int, int],
    *,
    in_channels: int = 3,
    backends: Sequence[str] = ("auto",),
    sites=None,
) -> Dict[str, int]:
    """Warm the kernel backends for a *trainable* model's Tucker cores.

    Planning dispatches every Tucker core on its shape at the output
    extent; this resolves those shapes through :func:`warm_backends`,
    so a following ``plan_model`` (and every serving deployment) is
    pure cache hits.  Compilation consults no backend.  Dense-only
    models warm nothing and return an empty mapping.  ``sites`` takes a
    pre-traced inventory so one traced forward can feed warm-up,
    planning, and compilation.
    """
    from repro.models.introspection import trace_layer_sites
    from repro.nn.tucker_conv import TuckerConv2d

    if sites is None:
        sites = trace_layer_sites(model, image_hw, in_channels=in_channels)
    pairs: List[Tuple[ConvShape, DeviceSpec]] = []
    for site in sites:
        mod = site.module
        if not isinstance(mod, TuckerConv2d):
            continue
        k = mod.kernel_size
        oh, ow = mod.output_shape(site.height, site.width)
        pairs.append((
            ConvShape(c=mod.rank_in, n=mod.rank_out, h=oh, w=ow, r=k, s=k),
            device,
        ))
    if not pairs:
        return {}
    return warm_backends(pairs, backends)


def plan_key(spec: ModelSpec, device: DeviceSpec, budget: float) -> PlanKey:
    """The :func:`plan_many` result key for one combination."""
    return (spec.fingerprint(), device.fingerprint(), budget)


def plan_many(
    specs: Sequence[ModelSpec],
    devices: Sequence[DeviceSpec],
    budgets: Sequence[float],
    *,
    theta: float = 0.15,
    rank_step: int = 32,
    method: str = "model",
    min_channels: int = 32,
    formats: object = ("tucker",),
) -> Dict[PlanKey, RankPlan]:
    """Algorithm 1 over the ``specs x devices x budgets`` grid.

    Tables do not depend on the budget, so every combination after the
    first on a (spec, device) pair plans from cached tables.
    ``formats`` widens rank selection beyond Tucker.  Returns
    ``{plan_key(spec, device, budget): RankPlan}`` — keys carry content
    *fingerprints*, never display names, so same-named device variants
    (a parameter sweep) or same-named spec variants (one architecture
    at two image sizes) each keep their own plan.
    """
    specs = list(specs)
    devices = list(devices)
    budgets = list(budgets)
    if not specs or not devices or not budgets:
        raise ValueError("plan_many needs at least one spec/device/budget")

    plans: Dict[PlanKey, RankPlan] = {}
    for spec in specs:
        layers = layer_shapes_from_spec(spec, min_channels=min_channels)
        if not layers:
            raise ValueError(f"{spec.name} has no decomposable convs")
        for device in devices:
            for budget in budgets:
                plans[plan_key(spec, device, budget)] = select_ranks(
                    layers, device,
                    budget=budget, theta=theta,
                    rank_step=rank_step, method=method, formats=formats,
                )
    return plans
