"""Full-scale layer inventories of the five evaluated CNNs.

The end-to-end latency studies (Figs. 8/9) need the *shapes* of every
layer of ResNet-18/50, VGG-16 and DenseNet-121/201 at ImageNet
resolution, not trained weights.  This module generates those
inventories programmatically from the published architectures.

A :class:`LayerSpec` records what the latency simulator needs: layer
kind, channel counts, input spatial extent, filter size, stride and
padding.  ``ModelSpec.decomposable_convs()`` returns the conv layers
the TDC pipeline considers for Tucker decomposition (spatial KxK convs
with K > 1 and at least 32 in/out channels, matching the paper's
step-of-32 rank grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Tuple


@dataclass(frozen=True)
class LayerSpec:
    """Shape record for one layer of a full-scale CNN."""

    name: str
    kind: str  # "conv" | "pool" | "fc" | "bn_relu"
    in_channels: int = 0
    out_channels: int = 0
    height: int = 0          # input spatial extent
    width: int = 0
    kernel: int = 0
    stride: int = 1
    padding: int = 0

    @property
    def out_height(self) -> int:
        if self.kind in ("conv", "pool"):
            return (self.height + 2 * self.padding - self.kernel) // self.stride + 1
        return self.height

    @property
    def out_width(self) -> int:
        if self.kind in ("conv", "pool"):
            return (self.width + 2 * self.padding - self.kernel) // self.stride + 1
        return self.width

    def flops(self) -> int:
        """Forward FLOPs (2 per MAC); pooling/norm counted as 0."""
        if self.kind == "conv":
            return (
                2 * self.out_height * self.out_width
                * self.out_channels * self.in_channels
                * self.kernel * self.kernel
            )
        if self.kind == "fc":
            return 2 * self.in_channels * self.out_channels
        return 0

    def n_params(self) -> int:
        if self.kind == "conv":
            return self.in_channels * self.out_channels * self.kernel * self.kernel
        if self.kind == "fc":
            return self.in_channels * self.out_channels + self.out_channels
        return 0


@dataclass
class ModelSpec:
    """Named sequence of layers plus convenience accounting."""

    name: str
    layers: List[LayerSpec] = field(default_factory=list)

    def convs(self) -> List[LayerSpec]:
        return [l for l in self.layers if l.kind == "conv"]

    def decomposable_convs(self, min_channels: int = 32) -> List[LayerSpec]:
        """Convs the co-design considers for Tucker decomposition."""
        return [
            l
            for l in self.convs()
            if l.kernel > 1
            and l.in_channels >= min_channels
            and l.out_channels >= min_channels
        ]

    def total_flops(self) -> int:
        return sum(l.flops() for l in self.layers)

    def total_params(self) -> int:
        return sum(l.n_params() for l in self.layers)

    def n_kernel_launches(self) -> int:
        """One GPU kernel launch per layer (conv/pool/fc/bn_relu)."""
        return len(self.layers)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def resnet18_spec(image_size: int = 224, num_classes: int = 1000) -> ModelSpec:
    """ResNet-18 (He et al. 2016) at ImageNet scale."""
    spec = ModelSpec("resnet18")
    hw = image_size
    spec.layers.append(LayerSpec("conv1", "conv", 3, 64, hw, hw, 7, 2, 3))
    hw = spec.layers[-1].out_height
    spec.layers.append(LayerSpec("maxpool", "pool", 64, 64, hw, hw, 3, 2, 1))
    hw = spec.layers[-1].out_height
    widths = [64, 128, 256, 512]
    blocks = [2, 2, 2, 2]
    in_ch = 64
    for stage, (w, n) in enumerate(zip(widths, blocks)):
        for b in range(n):
            stride = 2 if (stage > 0 and b == 0) else 1
            prefix = f"layer{stage + 1}.{b}"
            spec.layers.append(
                LayerSpec(f"{prefix}.conv1", "conv", in_ch, w, hw, hw, 3, stride, 1)
            )
            hw_out = spec.layers[-1].out_height
            spec.layers.append(
                LayerSpec(f"{prefix}.conv2", "conv", w, w, hw_out, hw_out, 3, 1, 1)
            )
            if stride != 1 or in_ch != w:
                spec.layers.append(
                    LayerSpec(f"{prefix}.downsample", "conv", in_ch, w, hw, hw, 1, stride, 0)
                )
            in_ch = w
            hw = hw_out
    spec.layers.append(LayerSpec("avgpool", "pool", in_ch, in_ch, hw, hw, hw, hw, 0))
    spec.layers.append(LayerSpec("fc", "fc", in_ch, num_classes))
    return spec


def resnet50_spec(image_size: int = 224, num_classes: int = 1000) -> ModelSpec:
    """ResNet-50 bottleneck architecture at ImageNet scale."""
    spec = ModelSpec("resnet50")
    hw = image_size
    spec.layers.append(LayerSpec("conv1", "conv", 3, 64, hw, hw, 7, 2, 3))
    hw = spec.layers[-1].out_height
    spec.layers.append(LayerSpec("maxpool", "pool", 64, 64, hw, hw, 3, 2, 1))
    hw = spec.layers[-1].out_height
    widths = [64, 128, 256, 512]
    blocks = [3, 4, 6, 3]
    in_ch = 64
    for stage, (w, n) in enumerate(zip(widths, blocks)):
        out_ch = w * 4
        for b in range(n):
            stride = 2 if (stage > 0 and b == 0) else 1
            prefix = f"layer{stage + 1}.{b}"
            spec.layers.append(
                LayerSpec(f"{prefix}.conv1", "conv", in_ch, w, hw, hw, 1, 1, 0)
            )
            spec.layers.append(
                LayerSpec(f"{prefix}.conv2", "conv", w, w, hw, hw, 3, stride, 1)
            )
            hw_out = spec.layers[-1].out_height
            spec.layers.append(
                LayerSpec(f"{prefix}.conv3", "conv", w, out_ch, hw_out, hw_out, 1, 1, 0)
            )
            if stride != 1 or in_ch != out_ch:
                spec.layers.append(
                    LayerSpec(f"{prefix}.downsample", "conv", in_ch, out_ch, hw, hw, 1, stride, 0)
                )
            in_ch = out_ch
            hw = hw_out
    spec.layers.append(LayerSpec("avgpool", "pool", in_ch, in_ch, hw, hw, hw, hw, 0))
    spec.layers.append(LayerSpec("fc", "fc", in_ch, num_classes))
    return spec


def vgg16_spec(image_size: int = 224, num_classes: int = 1000) -> ModelSpec:
    """VGG-16 (configuration D) at ImageNet scale."""
    spec = ModelSpec("vgg16")
    cfg = [64, 64, "M", 128, 128, "M", 256, 256, 256, "M",
           512, 512, 512, "M", 512, 512, 512, "M"]
    hw = image_size
    in_ch = 3
    conv_idx = 0
    for item in cfg:
        if item == "M":
            spec.layers.append(
                LayerSpec(f"pool{conv_idx}", "pool", in_ch, in_ch, hw, hw, 2, 2, 0)
            )
            hw //= 2
        else:
            spec.layers.append(
                LayerSpec(f"conv{conv_idx}", "conv", in_ch, int(item), hw, hw, 3, 1, 1)
            )
            in_ch = int(item)
            conv_idx += 1
    spec.layers.append(LayerSpec("fc1", "fc", in_ch * hw * hw, 4096))
    spec.layers.append(LayerSpec("fc2", "fc", 4096, 4096))
    spec.layers.append(LayerSpec("fc3", "fc", 4096, num_classes))
    return spec


def _densenet_spec(
    name: str, block_layers: List[int], image_size: int, num_classes: int,
    growth: int = 32,
) -> ModelSpec:
    spec = ModelSpec(name)
    hw = image_size
    spec.layers.append(LayerSpec("conv0", "conv", 3, 64, hw, hw, 7, 2, 3))
    hw = spec.layers[-1].out_height
    spec.layers.append(LayerSpec("pool0", "pool", 64, 64, hw, hw, 3, 2, 1))
    hw = spec.layers[-1].out_height
    ch = 64
    bottleneck = 4 * growth
    for bi, n_layers in enumerate(block_layers):
        for li in range(n_layers):
            prefix = f"denseblock{bi + 1}.layer{li + 1}"
            spec.layers.append(
                LayerSpec(f"{prefix}.conv1", "conv", ch, bottleneck, hw, hw, 1, 1, 0)
            )
            spec.layers.append(
                LayerSpec(f"{prefix}.conv2", "conv", bottleneck, growth, hw, hw, 3, 1, 1)
            )
            ch += growth
        if bi != len(block_layers) - 1:
            out_ch = ch // 2
            spec.layers.append(
                LayerSpec(f"transition{bi + 1}.conv", "conv", ch, out_ch, hw, hw, 1, 1, 0)
            )
            spec.layers.append(
                LayerSpec(f"transition{bi + 1}.pool", "pool", out_ch, out_ch, hw, hw, 2, 2, 0)
            )
            ch = out_ch
            hw //= 2
    spec.layers.append(LayerSpec("avgpool", "pool", ch, ch, hw, hw, hw, hw, 0))
    spec.layers.append(LayerSpec("fc", "fc", ch, num_classes))
    return spec


def densenet121_spec(image_size: int = 224, num_classes: int = 1000) -> ModelSpec:
    """DenseNet-121 ([6, 12, 24, 16], growth 32) at ImageNet scale."""
    return _densenet_spec("densenet121", [6, 12, 24, 16], image_size, num_classes)


def densenet201_spec(image_size: int = 224, num_classes: int = 1000) -> ModelSpec:
    """DenseNet-201 ([6, 12, 48, 32], growth 32) at ImageNet scale."""
    return _densenet_spec("densenet201", [6, 12, 48, 32], image_size, num_classes)


SPEC_BUILDERS: Dict[str, Callable[..., ModelSpec]] = {
    "resnet18": resnet18_spec,
    "resnet50": resnet50_spec,
    "vgg16": vgg16_spec,
    "densenet121": densenet121_spec,
    "densenet201": densenet201_spec,
}


def get_model_spec(name: str, image_size: int = 224) -> ModelSpec:
    """Look up a full-scale model spec by name."""
    if name not in SPEC_BUILDERS:
        raise KeyError(
            f"unknown model spec {name!r}; available: {sorted(SPEC_BUILDERS)}"
        )
    return SPEC_BUILDERS[name](image_size=image_size)


# The 18 core-convolution shapes evaluated in Figs. 6 and 7, given as
# (C, N, H, W) exactly as the paper lists them.  These are shapes of
# *core* convolutions appearing in the TKD-compressed versions of the
# five tested CNNs (so C and N are Tucker ranks).
PAPER_CONV_SHAPES: List[Tuple[int, int, int, int]] = [
    (64, 32, 224, 224),
    (64, 32, 112, 112),
    (32, 32, 56, 56),
    (64, 32, 56, 56),
    (64, 64, 56, 56),
    (32, 32, 28, 28),
    (64, 32, 28, 28),
    (96, 64, 28, 28),
    (160, 96, 28, 28),
    (192, 96, 28, 28),
    (32, 32, 14, 14),
    (64, 32, 14, 14),
    (128, 96, 14, 14),
    (192, 96, 14, 14),
    (32, 32, 7, 7),
    (64, 32, 7, 7),
    (96, 64, 7, 7),
    (192, 160, 7, 7),
]
