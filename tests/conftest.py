"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic import make_cifar_like
from repro.gpusim.device import A100, RTX2080TI


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: scaled-down training experiments (minutes)"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(params=["A100", "2080Ti"])
def device(request):
    return {"A100": A100, "2080Ti": RTX2080TI}[request.param]


@pytest.fixture
def a100():
    return A100


@pytest.fixture
def rtx2080ti():
    return RTX2080TI


@pytest.fixture(scope="session")
def tiny_dataset():
    """Small synthetic dataset shared across training tests."""
    return make_cifar_like(
        n_train=96, n_test=48, image_size=8, num_classes=4, seed=0
    )


@pytest.fixture
def count_allocations():
    """Shared numpy-allocation counter backed by ``repro.analysis``.

    Replaces the per-file monkeypatching counters that used to live in
    test_executable/test_fused/test_runtime: ``count_allocations(fn)``
    runs ``fn`` under the tracer and returns only the nonzero counts,
    so a clean hot path compares equal to ``{}``.
    """
    from repro.analysis.dynamic import count_allocations as impl

    return impl
