"""Introspection of trainable models: conv inventory with traced shapes.

The co-design pipeline needs, for every dense conv in a *trainable*
model, its input spatial extent.  We trace a dummy forward pass and
read the shapes each :class:`Conv2d` saw.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.conv import Conv2d
from repro.nn.factored_conv import FactoredConv2d
from repro.nn.module import Module

# Tracing temporarily swaps the *class-level* forward methods, which is
# process-global state: concurrent traces (e.g. two serving deployments)
# would capture each other's wrappers and corrupt the restoration chain.
# All tracing serializes on this lock.
_TRACE_LOCK = threading.RLock()

# Every conv-like layer class the planner/compiler understands.  A
# factored conv expands into its format's kernel chain; Conv2d binds a
# baseline kernel directly.
CONV_SITE_CLASSES = (Conv2d, FactoredConv2d)


@contextmanager
def _traced_shapes(model: Module):
    """Swap the conv-like classes' forward (every factored format
    inherits :class:`FactoredConv2d`'s) for a shape-recording wrapper
    for the duration of one dummy forward pass.

    Yields ``(shapes, order)``: input extent by module id, and first-
    execution order (the planner wants model order even for modules
    reused twice).
    """
    was_training = model.training
    model.eval()
    shapes: Dict[int, Tuple[int, int]] = {}
    order: List[int] = []

    with _TRACE_LOCK:
        originals = {cls: cls.forward for cls in CONV_SITE_CLASSES}

        def make_wrapper(orig):
            def tracing_forward(self, x: np.ndarray) -> np.ndarray:
                if id(self) not in shapes:
                    order.append(id(self))
                shapes[id(self)] = (x.shape[2], x.shape[3])
                return orig(self, x)
            return tracing_forward

        for cls, orig in originals.items():
            cls.forward = make_wrapper(orig)  # type: ignore[method-assign]
        try:
            yield shapes, order
        finally:
            for cls, orig in originals.items():
                cls.forward = orig  # type: ignore[method-assign]
            if was_training:
                model.train()


@dataclass
class ConvSite:
    """A dense conv layer inside a model, with its traced input size."""

    name: str
    layer: Conv2d
    height: int
    width: int

    @property
    def in_channels(self) -> int:
        return self.layer.in_channels

    @property
    def out_channels(self) -> int:
        return self.layer.out_channels

    @property
    def kernel_size(self) -> int:
        return self.layer.kernel_size

    def flops(self) -> int:
        return self.layer.flops(self.height, self.width)


def trace_conv_sites(
    model: Module, image_hw: Tuple[int, int], in_channels: int = 3,
    min_channels: int = 1, spatial_only: bool = True,
) -> List[ConvSite]:
    """Run a dummy forward pass and inventory the dense convs.

    Parameters
    ----------
    model:
        Any :class:`Module`; it is switched to eval mode for tracing.
    image_hw:
        Input spatial extent ``(H, W)``.
    min_channels:
        Only report convs with at least this many in and out channels
        (the paper's rank grid works in steps of 32, so the pipeline
        passes 32 here for full-scale models, smaller for slim ones).
    spatial_only:
        When True, skip 1x1 convs (they have no Tucker core to speed up).
    """
    with _traced_shapes(model) as (shapes, _order):
        dummy = np.zeros((1, in_channels, image_hw[0], image_hw[1]))
        model.forward(dummy)

    sites: List[ConvSite] = []
    for name, mod in model.named_modules():
        if not isinstance(mod, Conv2d):
            continue
        if id(mod) not in shapes:
            continue
        if spatial_only and mod.kernel_size == 1:
            continue
        if mod.in_channels < min_channels or mod.out_channels < min_channels:
            continue
        h, w = shapes[id(mod)]
        sites.append(ConvSite(name=name, layer=mod, height=h, width=w))
    return sites


@dataclass
class LayerSite:
    """Any conv-like layer (dense or factored) with traced input
    extent — the unit the compile/execute split binds kernels to."""

    name: str
    module: Module           # Conv2d or a FactoredConv2d
    height: int
    width: int

    @property
    def format(self) -> str:
        """The layer's decomposition format: ``"dense"`` or the
        factored module's ``format``."""
        return self.module.format if self.is_factored else "dense"

    @property
    def is_factored(self) -> bool:
        return isinstance(self.module, FactoredConv2d)

    @property
    def is_tucker(self) -> bool:
        return self.format == "tucker"


def trace_layer_sites(
    model: Module, image_hw: Tuple[int, int], in_channels: int = 3,
) -> List[LayerSite]:
    """Inventory every dense *and* factored conv with its traced input
    spatial extent, in model order.

    The execution-plan and compile steps need every kind: dense convs
    bind to a baseline kernel, and factored convs expand into their
    chain's pw1 -> core -> pw2 (a dense core dispatched through the
    backend registry, or a depthwise one).
    """
    with _traced_shapes(model) as (shapes, order):
        dummy = np.zeros((1, in_channels, image_hw[0], image_hw[1]))
        model.forward(dummy)

    by_id: Dict[int, Tuple[str, Module]] = {}
    for name, mod in model.named_modules():
        if isinstance(mod, CONV_SITE_CLASSES) and id(mod) in shapes:
            by_id[id(mod)] = (name, mod)
    sites: List[LayerSite] = []
    for mod_id in order:
        if mod_id not in by_id:
            continue  # executed but not registered (not reachable by name)
        name, mod = by_id[mod_id]
        h, w = shapes[mod_id]
        sites.append(LayerSite(name=name, module=mod, height=h, width=w))
    return sites


def find_module(model: Module, dotted_name: str) -> Module:
    """Resolve a dotted module path (as produced by ``named_modules``)."""
    for name, mod in model.named_modules():
        if name == dotted_name:
            return mod
    raise KeyError(f"module {dotted_name!r} not found")


def replace_module(model: Module, dotted_name: str, new: Module) -> None:
    """Replace the submodule at ``dotted_name`` with ``new`` in place."""
    if not dotted_name:
        raise ValueError("cannot replace the root module")
    parts = dotted_name.split(".")
    parent: Module = model
    for part in parts[:-1]:
        child = parent._modules.get(part)
        if child is None:
            raise KeyError(f"module {dotted_name!r} not found")
        parent = child
    leaf = parts[-1]
    if leaf not in parent._modules:
        raise KeyError(f"module {dotted_name!r} not found")
    parent.register_module(leaf, new)


def model_conv_flops(model: Module, image_hw: Tuple[int, int],
                     in_channels: int = 3) -> int:
    """Total conv FLOPs of a trainable model at the given input size.

    Counts dense and every factored conv format (using each layer's own
    ``flops`` accounting), so budgets can be checked after compression.
    """
    with _traced_shapes(model) as (shapes, _order):
        model.forward(
            np.zeros((1, in_channels, image_hw[0], image_hw[1]))
        )

    total = 0
    for _, mod in model.named_modules():
        if isinstance(mod, CONV_SITE_CLASSES) and id(mod) in shapes:
            h, w = shapes[id(mod)]
            total += mod.flops(h, w)
    return total
