"""Deterministic chaos injection for the serving stack.

A :class:`FaultInjector` wraps compiled
:class:`~repro.inference.Executable` objects (or swaps a wrapper into a
live :class:`~repro.serving.InferenceSession` at a batch boundary —
the only way a live session's executable changes) so
that robustness machinery — circuit breakers, retries, hedging, output
validation — can be exercised against *reproducible* failure traffic:

- **latency spikes**: the run sleeps before executing (a replica that
  suddenly got slow);
- **mid-batch exceptions**: :class:`InjectedFault` raised instead of a
  result (a kernel crash the serve loop must contain);
- **worker death**: :class:`WorkerCrash` — deliberately *not* an
  ``Exception`` — which the serve loop treats as fatal: the session
  fails its in-flight waiters, drains the queue rejecting, and closes;
- **corrupted outputs**: the forward runs but the returned tensor is
  NaN-poisoned, so a router-side validity check can (must) refuse to
  serve it;
- **constant extra latency**: a per-run slowdown that is also added to
  ``predicted_latency()`` — this models a *genuinely slower device*
  whose prediction carries the same slowdown, which is what makes
  heterogeneous-fleet routing experiments honest.

Every wrapper draws from its own ``numpy`` Generator seeded by the
injector seed plus a per-wrapper stream index, so a chaos scenario
replays identically for a fixed seed regardless of thread timing.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np


class InjectedFault(RuntimeError):
    """An exception deliberately raised by a chaos-injected executable
    (stands in for a kernel crash mid-batch)."""


class WorkerCrash(BaseException):
    """Simulated worker-thread death.

    Derives from ``BaseException`` on purpose: the serve loop contains
    ordinary ``Exception`` failures and keeps serving, but a
    ``WorkerCrash`` kills the worker — the session fails its in-flight
    batch, rejects everything queued, and closes, exactly like a
    thread that died would look to callers (minus the hang).
    """


@dataclass(frozen=True)
class FaultSpec:
    """Per-run fault probabilities and magnitudes for one wrapper.

    On each ``run`` a single uniform draw picks *at most one* fault,
    checked in severity order: crash, exception, corrupt, latency
    spike (so the probabilities must sum to <= 1).  ``extra_latency_s``
    is unconditional — it models a slower device rather than a fault —
    and is reflected in the wrapper's ``predicted_latency()``.
    ``after_runs`` arms the faults only after that many clean runs
    (lets a replica warm up / pass its probe before misbehaving).
    """

    latency_spike_p: float = 0.0
    latency_spike_s: float = 0.01
    exception_p: float = 0.0
    corrupt_p: float = 0.0
    crash_p: float = 0.0
    extra_latency_s: float = 0.0
    after_runs: int = 0

    def __post_init__(self) -> None:
        for field in ("latency_spike_p", "exception_p", "corrupt_p",
                      "crash_p"):
            p = getattr(self, field)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{field} must be in [0, 1], got {p}")
        total = (self.latency_spike_p + self.exception_p
                 + self.corrupt_p + self.crash_p)
        if total > 1.0 + 1e-9:
            raise ValueError(
                f"fault probabilities must sum to <= 1, got {total}"
            )
        if self.latency_spike_s < 0 or self.extra_latency_s < 0:
            raise ValueError("fault latencies must be >= 0")
        if self.after_runs < 0:
            raise ValueError("after_runs must be >= 0")

    @property
    def fault_p(self) -> float:
        """Total probability that a run misbehaves."""
        return (self.latency_spike_p + self.exception_p
                + self.corrupt_p + self.crash_p)


class FaultyExecutable:
    """Executable proxy that injects faults per :class:`FaultSpec`.

    Exposes the same surface the serving stack touches (``run``,
    ``predicted_latency``, ``max_batch``, ``input_shape``, ``dtype``,
    ...); everything not overridden delegates to the wrapped
    executable, so a :class:`~repro.serving.InferenceSession` cannot
    tell the difference until the faults fire.
    """

    def __init__(self, inner, spec: FaultSpec, rng: np.random.Generator
                 ) -> None:
        self.inner = inner
        self.spec = spec
        self._rng = rng
        self.runs = 0
        self.injected: Dict[str, int] = {
            "latency_spike": 0, "exception": 0, "corrupt": 0, "crash": 0,
        }

    # Attribute passthrough covers max_batch / input_shape / dtype /
    # model_name / arena / plan / device / measure / ...
    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def predicted_latency(self) -> float:
        """Inner prediction plus the modeled constant slowdown.

        Keeping the prediction honest about ``extra_latency_s`` is what
        lets latency-aware routers treat a wrapped replica as a
        predictably slow device rather than a mispredicted fast one.
        """
        return float(self.inner.predicted_latency()) + self.spec.extra_latency_s

    def run(self, x: np.ndarray) -> np.ndarray:
        self.runs += 1
        spec = self.spec
        if spec.extra_latency_s:
            time.sleep(spec.extra_latency_s)
        if self.runs > spec.after_runs and spec.fault_p > 0.0:
            u = float(self._rng.random())
            if u < spec.crash_p:
                self.injected["crash"] += 1
                raise WorkerCrash(
                    f"injected worker death (run {self.runs})"
                )
            u -= spec.crash_p
            if u < spec.exception_p:
                self.injected["exception"] += 1
                raise InjectedFault(
                    f"injected mid-batch exception (run {self.runs})"
                )
            u -= spec.exception_p
            if u < spec.corrupt_p:
                self.injected["corrupt"] += 1
                y = self.inner.run(x)
                # Poison a copy — never the executable's arena buffer,
                # which later (healthy) runs reuse.
                bad = np.array(y, copy=True)
                bad[...] = np.nan
                return bad
            u -= spec.corrupt_p
            if u < spec.latency_spike_p:
                self.injected["latency_spike"] += 1
                time.sleep(spec.latency_spike_s)
        return self.inner.run(x)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultyExecutable({self.inner!r}, runs={self.runs}, "
                f"injected={self.injected})")


class FaultInjector:
    """Seeded factory of :class:`FaultyExecutable` wrappers.

    One injector = one chaos scenario: wrappers receive independent
    deterministic random streams derived from ``(seed, wrap_index)``,
    so the i-th wrapped executable replays the same fault sequence
    across runs of the same scenario.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._lock = threading.Lock()
        self._wrapped = 0

    def wrap(self, executable, spec: FaultSpec) -> FaultyExecutable:
        """Wrap an executable with a fresh deterministic fault stream."""
        with self._lock:
            stream = self._wrapped
            self._wrapped += 1
        rng = np.random.default_rng([self.seed, stream])
        return FaultyExecutable(executable, spec, rng)

    def infect(self, session, spec: FaultSpec) -> FaultyExecutable:
        """Swap a fault wrapper into a live session.

        Waits for the in-flight batch (swap lock), so the injection
        lands on a batch boundary.
        """
        with session._swap_lock:
            wrapped = self.wrap(session.executable, spec)
            session.executable = wrapped
        return wrapped

    @staticmethod
    def cure(session) -> Optional[FaultyExecutable]:
        """Remove a previously injected wrapper (returns it, if any)."""
        with session._swap_lock:
            executable = session.executable
            if isinstance(executable, FaultyExecutable):
                session.executable = executable.inner
                return executable
        return None
