"""Invariant-checking subsystem: static lint rules + dynamic probes.

``repro.analysis`` machine-checks the contracts the rest of the repo
stakes its claims on: zero steady-state allocation in the compiled hot
path, no silent float64 promotion in kernel code, lock-guarded
cross-thread writes in the serving stack, and a conformant
``KernelBackend`` protocol.  ``analysis.lint`` + ``analysis.rules``
are the AST half (run via ``repro analyze``); ``analysis.dynamic``
executes compiled probes (allocation tracer, live-aliasing check,
poisoned-slab stale-read check) and
backs the shared test fixtures and the CI ``analysis-smoke`` job.
"""

from repro.analysis.lint import (
    BASELINE_VERSION,
    Finding,
    ParsedModule,
    Rule,
    apply_baseline,
    load_baseline,
    run_rules,
    save_baseline,
)

__all__ = [
    "BASELINE_VERSION",
    "Finding",
    "ParsedModule",
    "Rule",
    "apply_baseline",
    "load_baseline",
    "run_rules",
    "save_baseline",
]
