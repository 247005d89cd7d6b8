"""Backend warm-up over the plan caches.

Every planner memoizes on first use in a
:class:`~repro.planning.cache.PlanCache` (tiling selections,
performance tables, TVM tuning, fused tilings and latencies), so
nothing here computes a value that the planner would not compute
itself.  :func:`warm_backends` / :func:`warm_model_backends` resolve
each kernel backend's core latency once per (shape, device) pair,
which fills that backend's caches before the deploy path plans.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.gpusim.device import DeviceSpec
from repro.kernels.base import ConvShape


def warm_backends(
    shapes_devices: Sequence[Tuple[ConvShape, DeviceSpec]],
    backends: Sequence[str],
) -> Dict[str, int]:
    """Resolve every requested kernel backend over (shape, device) pairs.

    Each name is validated against the registry; ``"auto"`` expands to
    *all* registered backends (auto dispatch evaluates every one of
    them per core shape, so its warm-up must too).  Each backend gets
    one ``core_latency`` call per distinct pair it supports, which is
    what fills its memoized state.  A backend that finds no feasible
    config (``ValueError``) is skipped for that pair, as ``auto``
    dispatch skips it.  Returns the number of pairs resolved per
    backend name.
    """
    from repro.backends import (
        AUTO_BACKEND,
        backend_names,
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
        pairs.setdefault(shape.as_tuple() + (device.fingerprint(),),
                         (shape, device))
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
