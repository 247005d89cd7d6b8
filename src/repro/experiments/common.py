"""Shared experiment configuration.

Per-model FLOPs-reduction budgets follow Sec. 7.2: 65% for ResNet-18,
60% for ResNet-50, 80% for VGG-16, 10% for the DenseNets (no prior
work to anchor those, so the paper starts at 10%).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.gpusim.device import A100, RTX2080TI, DeviceSpec

# Paper Sec. 7.2 budgets per model.
MODEL_BUDGETS: Dict[str, float] = {
    "resnet18": 0.65,
    "resnet50": 0.60,
    "vgg16": 0.80,
    "densenet121": 0.10,
    "densenet201": 0.10,
}

E2E_MODELS: Tuple[str, ...] = (
    "densenet121", "densenet201", "resnet18", "resnet50", "vgg16",
)

DEVICES: Dict[str, DeviceSpec] = {"A100": A100, "2080Ti": RTX2080TI}

# Paper-reported end-to-end speedups (oracle / model) that the Fig. 8/9
# benches compare the reproduced ones against: {(device, model):
# (vs_original, vs_tk_cudnn, vs_tk_tvm)} — oracle numbers.
PAPER_E2E_SPEEDUPS: Dict[Tuple[str, str], Tuple[float, float, float]] = {
    ("A100", "densenet121"): (2.14, 1.41, 1.03),
    ("A100", "densenet201"): (1.70, 1.42, 1.04),
    ("A100", "resnet18"): (3.27, 2.21, 1.12),
    ("A100", "resnet50"): (2.07, 1.26, 1.02),
    ("A100", "vgg16"): (2.37, 1.45, 1.09),
    ("2080Ti", "densenet121"): (4.15, 2.16, 1.13),
    ("2080Ti", "densenet201"): (2.62, 1.81, 1.13),
    ("2080Ti", "resnet18"): (7.30, 3.71, 1.91),
    ("2080Ti", "resnet50"): (2.83, 1.38, 1.09),
    ("2080Ti", "vgg16"): (2.73, 1.68, 1.25),
}

# Paper-reported average layerwise speedups of TDC (oracle / model)
# over each rival (Figs. 6/7 text).
PAPER_LAYERWISE_SPEEDUPS: Dict[Tuple[str, str], Tuple[float, float]] = {
    ("A100", "cudnn_fft"): (5.38, 4.91),
    ("A100", "cudnn_winograd"): (3.12, 2.92),
    ("A100", "cudnn_gemm"): (8.95, 8.63),
    ("A100", "tvm"): (1.81, 1.72),
    ("2080Ti", "cudnn_fft"): (8.17, 6.21),
    ("2080Ti", "cudnn_winograd"): (2.75, 2.12),
    ("2080Ti", "cudnn_gemm"): (5.84, 5.38),
    ("2080Ti", "tvm"): (2.35, 1.81),
}
