"""Pluggable kernel-backend registry for core-conv planning.

Importing this package registers the built-in backends; see
:mod:`repro.backends.registry` for the protocol and
:mod:`repro.backends.builtin` for the implementations.
"""

from repro.backends.registry import (
    AUTO_BACKEND,
    DEPTHWISE_BASELINE,
    CoreDispatch,
    KernelBackend,
    auto_dispatch,
    backend_names,
    dispatch_core,
    dispatch_dwcore,
    get_backend,
    known_backend_names,
    register_backend,
    registered_backends,
    temporary_backend,
    unregister_backend,
    validate_backend,
)
from repro.backends.builtin import PAPER_CORE_BACKENDS
from repro.backends.fused import FusedBackend

__all__ = [
    "AUTO_BACKEND",
    "DEPTHWISE_BASELINE",
    "CoreDispatch",
    "FusedBackend",
    "KernelBackend",
    "PAPER_CORE_BACKENDS",
    "auto_dispatch",
    "backend_names",
    "dispatch_core",
    "dispatch_dwcore",
    "get_backend",
    "known_backend_names",
    "register_backend",
    "registered_backends",
    "temporary_backend",
    "unregister_backend",
    "validate_backend",
]
