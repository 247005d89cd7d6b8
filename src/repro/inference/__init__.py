"""Inference: execution plans, the compile/execute split, and
end-to-end latency estimation.

Pipeline: ``plan_model``/``plan_tucker_model`` decide (cold) →
``compile_plan`` lowers every conv site to host stages over exported
weights and arena buffers in an ``Executable`` (cold) →
``Executable.run`` executes numeric forwards (hot) →
:mod:`repro.serving` queues requests on top.
"""

from repro.backends import PAPER_CORE_BACKENDS
from repro.inference.engine import (
    E2EResult,
    ORIGINAL_VARIANT,
    estimate_e2e,
    estimate_e2e_many,
    resolve_backend_list,
)
from repro.inference.executable import (
    BufferArena,
    CompiledConv2d,
    CompiledCPConv2d,
    CompiledTTConv2d,
    CompiledTuckerConv2d,
    Executable,
    compile_model,
    compile_plan,
    model_dtype,
)
from repro.inference.plan import (
    ExecutionPlan,
    PlannedKernel,
    plan_dense_model,
    plan_model,
    plan_tucker_model,
)

# Historical alias: the four fixed compressed variants of Figs. 8/9.
# Backend dispatch itself now lives in :mod:`repro.backends`.
CORE_BACKENDS = PAPER_CORE_BACKENDS

__all__ = [
    "BufferArena",
    "CORE_BACKENDS",
    "CompiledConv2d",
    "CompiledCPConv2d",
    "CompiledTTConv2d",
    "CompiledTuckerConv2d",
    "E2EResult",
    "Executable",
    "ExecutionPlan",
    "ORIGINAL_VARIANT",
    "PAPER_CORE_BACKENDS",
    "PlannedKernel",
    "compile_model",
    "compile_plan",
    "model_dtype",
    "estimate_e2e",
    "estimate_e2e_many",
    "plan_dense_model",
    "plan_model",
    "plan_tucker_model",
    "resolve_backend_list",
]
