"""Serving layer: micro-batched inference sessions over compiled
Executables, and the fault-tolerant fleet above them.

``plan → compile → execute → serve``: this package is the last stage —
:class:`InferenceSession` queues single-sample requests over one
:class:`~repro.inference.Executable` and reports measured-vs-predicted
drift as a statistic; :class:`SessionRegistry` deploys model presets
end to end (decompose → warm → plan → compile → serve).

The fleet layer (:func:`deploy_fleet` → :class:`ReplicaSet`) replicates
one model across heterogeneous devices behind SLO-aware admission
(:class:`AdmissionController` — typed :class:`Overloaded` shedding and
degradation to a cheaper fallback plan), latency-aware routing
(:mod:`repro.serving.router`), bounded retries/hedging, and per-replica
circuit breakers that restart failed replicas from a fresh compile.
:class:`FaultInjector` provides the deterministic chaos harness the
whole stack is gated against.
"""

from repro.serving.admission import (
    ACCEPT,
    AdmissionController,
    AdmissionStats,
    CorruptedOutput,
    DeadlineExceeded,
    DEFAULT_PRIORITY_CLASSES,
    DEGRADE,
    Overloaded,
    PriorityClass,
)
from repro.serving.faults import (
    FaultInjector,
    FaultSpec,
    FaultyExecutable,
    InjectedFault,
    WorkerCrash,
)
from repro.serving.fleet import (
    CircuitBreakerPolicy,
    FleetStats,
    PriorityStats,
    Replica,
    ReplicaSet,
    ReplicaStats,
    RetryPolicy,
    deploy_fleet,
)
from repro.serving.router import (
    LeastLoadedRouter,
    ROUTER_POLICIES,
    RoundRobinRouter,
    make_router,
)
from repro.serving.session import (
    InferenceSession,
    RequestCancelled,
    SessionRegistry,
    SessionStats,
    latency_quantile,
)

__all__ = [
    "ACCEPT",
    "AdmissionController",
    "AdmissionStats",
    "CircuitBreakerPolicy",
    "CorruptedOutput",
    "DEFAULT_PRIORITY_CLASSES",
    "DEGRADE",
    "DeadlineExceeded",
    "FaultInjector",
    "FaultSpec",
    "FaultyExecutable",
    "FleetStats",
    "InferenceSession",
    "InjectedFault",
    "LeastLoadedRouter",
    "Overloaded",
    "PriorityClass",
    "PriorityStats",
    "ROUTER_POLICIES",
    "Replica",
    "ReplicaSet",
    "ReplicaStats",
    "RequestCancelled",
    "RetryPolicy",
    "RoundRobinRouter",
    "SessionRegistry",
    "SessionStats",
    "WorkerCrash",
    "deploy_fleet",
    "latency_quantile",
    "make_router",
]
