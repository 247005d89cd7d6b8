"""Synthetic datasets (ImageNet/CIFAR stand-ins).

No network access and no dataset files are available offline, so the
accuracy experiments run on deterministic synthetic image-classification
tasks whose difficulty is controllable.  The tasks
are built so that a small CNN must actually learn spatial structure:
each class is a mixture of oriented texture patterns plus per-sample
noise and random global transforms.
"""

from repro.data.synthetic import (
    Dataset,
    SyntheticImageClassification,
    batches,
    make_cifar_like,
    make_tiny_imagenet_like,
    train_val_split,
)

__all__ = [
    "Dataset",
    "SyntheticImageClassification",
    "batches",
    "make_cifar_like",
    "make_tiny_imagenet_like",
    "train_val_split",
]
