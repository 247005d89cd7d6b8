"""NumPy deep-learning framework (PyTorch stand-in).

Layer-graph framework with explicit forward/backward per module,
sufficient for training and fine-tuning the CNNs the paper evaluates.
See :mod:`repro.nn.gradcheck` for the finite-difference validation used
by the test suite.
"""

from repro.nn.conv import Conv2d
from repro.nn.cp_conv import CPConv2d
from repro.nn.factored_conv import FactoredConv2d
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.loss import CrossEntropyLoss, MSELoss, accuracy, topk_accuracy
from repro.nn.module import Identity, Module, Parameter, Sequential
from repro.nn.optim import (
    SGD,
    Adam,
    CosineAnnealingLR,
    LRScheduler,
    MultiStepLR,
    StepLR,
)
from repro.nn.tt_conv import TTConv2d
from repro.nn.tucker_conv import TuckerConv2d
from repro.nn.tucker_linear import TuckerLinear

__all__ = [
    "Conv2d",
    "CPConv2d",
    "FactoredConv2d",
    "TTConv2d",
    "TuckerConv2d",
    "TuckerLinear",
    "AvgPool2d",
    "BatchNorm2d",
    "Dropout",
    "Flatten",
    "GlobalAvgPool2d",
    "Linear",
    "MaxPool2d",
    "ReLU",
    "CrossEntropyLoss",
    "MSELoss",
    "accuracy",
    "topk_accuracy",
    "Identity",
    "Module",
    "Parameter",
    "Sequential",
    "SGD",
    "Adam",
    "CosineAnnealingLR",
    "LRScheduler",
    "MultiStepLR",
    "StepLR",
]
