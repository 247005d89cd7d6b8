"""Fault-tolerant fleet serving: replicas, health, retries, degradation.

The layer above :class:`~repro.serving.InferenceSession` that the
ROADMAP's "millions of users" north star needs: a :class:`ReplicaSet`
runs N session replicas of one model across heterogeneous devices and
answers ``infer()`` calls through

1. an :class:`~repro.serving.admission.AdmissionController` — typed
   :class:`~repro.serving.admission.Overloaded` rejects when the
   predicted queue delay already exceeds the request's deadline, and
   degradation of low-priority traffic onto a cheaper fallback plan
   (compiled alongside the primary) under sustained overload;
2. a router (:mod:`repro.serving.router`) ranking replicas by
   predicted latency x live queue depth;
3. bounded retries with exponential backoff, optional hedged requests
   to a second replica (the loser is *cancelled*, so hedges cost queue
   slots only until the winner lands), and output validation that
   refuses to serve non-finite (chaos-corrupted) tensors;
4. per-replica health: a circuit breaker trips after consecutive
   failures (or a dead worker), the replica drains, restarts from a
   fresh compile, and must pass a half-open synthetic probe before
   readmission.

Every admitted request terminates: with a result, or with a typed
error (``Overloaded``, ``DeadlineExceeded``, or the replica failure
after the retry budget) — never a hung future.  The chaos harness
(:mod:`repro.serving.faults`) and ``benchmarks/bench_fleet.py`` gate
exactly that.
"""

from __future__ import annotations

import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.serving.admission import (
    ACCEPT,
    DEGRADE,
    AdmissionController,
    AdmissionStats,
    CorruptedOutput,
    DeadlineExceeded,
    Overloaded,
    PriorityClass,
)
from repro.serving.router import make_router
from repro.serving.session import (
    InferenceSession,
    SessionStats,
    _Pending,
    _Ring,
    latency_quantile,
)

#: Circuit-breaker states (per replica).
STATE_CLOSED = "closed"        # healthy, routable
STATE_OPEN = "open"            # tripped: drained, waiting out cooldown
STATE_RESTARTING = "restarting"  # compiling a fresh session
STATE_HALF_OPEN = "half-open"  # probing before readmission


@dataclass(frozen=True)
class CircuitBreakerPolicy:
    """When a replica is pulled from rotation and how it comes back.

    ``failure_threshold`` consecutive failures trip the breaker (a
    dead worker trips immediately); after ``reset_timeout_s`` the
    replica restarts from a fresh compile (its factory) and enters
    half-open, where one synthetic probe decides: success readmits,
    failure re-opens for another cooldown.
    """

    failure_threshold: int = 3
    reset_timeout_s: float = 0.25
    probe_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.reset_timeout_s < 0:
            raise ValueError("reset_timeout_s must be >= 0")
        if self.probe_timeout_s <= 0:
            raise ValueError("probe_timeout_s must be positive")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries + optional hedging for one fleet request.

    ``max_attempts`` caps total submissions (first try + retries +
    hedges).  Backoff between failed attempts grows exponentially from
    ``backoff_base_s`` (capped at ``backoff_max_s``, never past the
    request deadline).  ``hedge_after_s`` (opt-in) launches a second
    request on the next-ranked replica when the first has not answered
    in time; the first result wins and the loser is cancelled.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.002
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 0.05
    hedge_after_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ValueError("backoff must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")
        if self.hedge_after_s is not None and self.hedge_after_s < 0:
            raise ValueError("hedge_after_s must be >= 0")


@dataclass
class ReplicaStats:
    """Health + load snapshot of one replica."""

    replica_id: str
    device: str
    state: str
    successes: int
    failures: int
    restarts: int
    queue_depth: int
    predicted_latency_s: float
    estimated_wait_s: float
    session: SessionStats


@dataclass
class PriorityStats:
    """Per-priority-class outcome counters and latency quantiles."""

    completed: int = 0
    degraded: int = 0
    deadline_exceeded: int = 0
    errors: int = 0
    mean_latency_s: float = 0.0
    p50_latency_s: float = 0.0
    p95_latency_s: float = 0.0
    p99_latency_s: float = 0.0


@dataclass
class FleetStats:
    """One ReplicaSet's aggregate view."""

    name: str
    completed: int
    retries: int
    hedges: int
    corruption_blocked: int
    admission: AdmissionStats
    per_priority: Dict[str, PriorityStats] = field(default_factory=dict)
    replicas: List[ReplicaStats] = field(default_factory=list)


class Replica:
    """One InferenceSession plus its circuit-breaker health state.

    The replica tracks consecutive failures; tripping marks it
    unroutable (``available()`` False) until the fleet's maintenance
    pass walks it through restart -> half-open -> probe -> readmit.
    ``factory`` rebuilds the session from a fresh compile (plans are
    cached, so a restart costs a compile, not a re-plan).
    """

    def __init__(
        self,
        replica_id: str,
        session: InferenceSession,
        *,
        device: Optional[DeviceSpec] = None,
        factory: Optional[Callable[[], InferenceSession]] = None,
        breaker: Optional[CircuitBreakerPolicy] = None,
    ) -> None:
        self.id = str(replica_id)
        self.session = session
        self.device = device
        self.breaker = breaker or CircuitBreakerPolicy()
        self._factory = factory
        self._lock = threading.RLock()
        self._state = STATE_CLOSED
        self._consecutive = 0
        self._opened_at = 0.0
        self.successes = 0
        self.failures = 0
        self.restarts = 0

    # -- capacity -----------------------------------------------------
    def predicted_latency_s(self) -> float:
        """Calibrated per-request latency prediction of the bound plan."""
        return float(self.session.executable.predicted_latency())

    def queue_depth(self) -> int:
        return self.session.queue_depth()

    def estimated_wait_s(self) -> float:
        """Predicted completion time for one more request: per-request
        latency x (queue ahead + this request)."""
        return self.predicted_latency_s() * (self.queue_depth() + 1)

    # -- health -------------------------------------------------------
    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def available(self) -> bool:
        """Routable: breaker closed and the worker actually alive."""
        with self._lock:
            return self._state == STATE_CLOSED and self.session.is_alive()

    def record_success(self) -> None:
        with self._lock:
            self.successes += 1
            self._consecutive = 0
            if self._state == STATE_HALF_OPEN:
                self._state = STATE_CLOSED  # probe passed: readmit

    def record_failure(self) -> None:
        with self._lock:
            self.failures += 1
            self._consecutive += 1
            if (self._state == STATE_HALF_OPEN
                    or self._consecutive >= self.breaker.failure_threshold):
                self._trip_locked()

    def _trip_locked(self) -> None:
        self._state = STATE_OPEN
        self._opened_at = time.perf_counter()

    def maintain(self, probe: Callable[["Replica"], bool]) -> None:
        """One health pass (fleet maintenance thread only).

        closed+dead-worker -> open; open past cooldown -> restart from
        a fresh compile -> half-open; half-open -> run the synthetic
        probe and readmit or re-open.
        """
        now = time.perf_counter()
        stale: Optional[InferenceSession] = None
        with self._lock:
            if self._state == STATE_CLOSED:
                if not self.session.is_alive():
                    # Worker died (crash / fatal fault): trip now so
                    # the router stops offering a dead session.
                    self.failures += 1
                    self._trip_locked()
                return
            if self._state == STATE_OPEN:
                if now - self._opened_at < self.breaker.reset_timeout_s:
                    return
                if self._factory is None:
                    if not self.session.is_alive():
                        # Nothing to restart from; stay open (checked
                        # again next pass in case the session revives).
                        self._opened_at = now
                        return
                    # Transient failures on a live worker: probe the
                    # existing session instead of recompiling.
                    self._state = STATE_HALF_OPEN
                    self._consecutive = 0
                else:
                    self._state = STATE_RESTARTING
            elif self._state == STATE_RESTARTING:
                return  # a restart is already in flight
        if self.state == STATE_RESTARTING:
            # Compile outside the lock: clients checking available()
            # must not block behind a recompile.
            try:
                fresh = self._factory()
            except Exception as exc:
                with self._lock:
                    self._state = STATE_OPEN
                    self._opened_at = time.perf_counter()
                print(f"replica {self.id} restart failed: {exc}",
                      file=sys.stderr)
                return
            with self._lock:
                stale = self.session
                self.session = fresh
                self.restarts += 1
                self._consecutive = 0
                self._state = STATE_HALF_OPEN
            if stale is not None:
                stale.close(timeout=1.0)
        if self.state == STATE_HALF_OPEN:
            try:
                ok = bool(probe(self))
            except Exception:
                ok = False
            if ok:
                self.record_success()
            else:
                self.record_failure()  # half-open failure -> re-open

    def snapshot(self) -> ReplicaStats:
        with self._lock:
            state = self._state
            successes = self.successes
            failures = self.failures
            restarts = self.restarts
            session = self.session
        return ReplicaStats(
            replica_id=self.id,
            device=self.device.name if self.device is not None else "-",
            state=state,
            successes=successes,
            failures=failures,
            restarts=restarts,
            queue_depth=session.queue_depth(),
            predicted_latency_s=float(
                session.executable.predicted_latency()
            ),
            estimated_wait_s=self.estimated_wait_s(),
            session=session.stats(),
        )


def _finite(y: np.ndarray) -> bool:
    return bool(np.isfinite(np.asarray(y)).all())


class ReplicaSet:
    """N replicas of one model behind admission, routing, and retries.

    Parameters
    ----------
    name:
        Fleet name (stats / error messages).
    replicas:
        The :class:`Replica` pool (heterogeneous devices welcome).
    router:
        Policy name (``"least-loaded"``/``"round-robin"``) or a router
        instance.
    admission:
        An :class:`AdmissionController`; defaults to the three-tier
        high/normal/low taxonomy.
    fallback:
        Optional :class:`InferenceSession` over the cheaper (lower-rank
        / faster-format) executable; degradable traffic lands here when
        the fleet is pressured.
    retry:
        :class:`RetryPolicy` for replica failures and hedging.
    validate_output:
        Predicate applied to every candidate result; failures are
        treated as replica faults (default: reject non-finite values,
        which is what the chaos corruptor produces).
    maintenance_interval_s:
        Cadence of the health thread (breaker transitions + probes).
    """

    def __init__(
        self,
        name: str,
        replicas: Sequence[Replica],
        *,
        router="least-loaded",
        admission: Optional[AdmissionController] = None,
        fallback: Optional[InferenceSession] = None,
        retry: Optional[RetryPolicy] = None,
        validate_output: Optional[Callable[[np.ndarray], bool]] = None,
        maintenance_interval_s: float = 0.02,
        latency_window: int = 2048,
    ) -> None:
        replicas = list(replicas)
        if not replicas:
            raise ValueError("a ReplicaSet needs at least one replica")
        ids = [r.id for r in replicas]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate replica ids: {sorted(ids)}")
        self.name = str(name)
        self.replicas = replicas
        self.router = make_router(router)
        self.admission = admission or AdmissionController()
        self.fallback = fallback
        self.retry = retry or RetryPolicy()
        self._validate = validate_output or _finite
        self._lock = threading.Lock()
        self._lat = {
            cls.name: _Ring(latency_window)
            for cls in self.admission.classes()
        }
        self._counts: Dict[str, Dict[str, int]] = {
            cls.name: {"completed": 0, "degraded": 0,
                       "deadline_exceeded": 0, "errors": 0}
            for cls in self.admission.classes()
        }
        self._retries = 0
        self._hedges = 0
        self._corruption_blocked = 0
        self._closed = False
        shape = replicas[0].session.executable.input_shape
        self._probe_x = np.zeros(shape)
        self._maintenance_interval_s = float(maintenance_interval_s)
        self._maintenance = threading.Thread(
            target=self._maintenance_loop,
            name=f"fleet-{self.name}",
            daemon=True,
        )
        self._maintenance.start()

    # -- health maintenance -------------------------------------------
    def _probe(self, replica: Replica) -> bool:
        y = replica.session.infer(
            self._probe_x, timeout=replica.breaker.probe_timeout_s
        )
        return self._validate(y)

    def _maintenance_loop(self) -> None:
        while not self._closed:
            for replica in self.replicas:
                if self._closed:
                    return
                try:
                    replica.maintain(self._probe)
                except Exception as exc:  # pragma: no cover - paranoia
                    print(
                        f"fleet {self.name!r} maintenance of replica "
                        f"{replica.id} failed: {exc}",
                        file=sys.stderr,
                    )
            time.sleep(self._maintenance_interval_s)

    # -- request path -------------------------------------------------
    def _best_wait_s(self) -> float:
        waits = [
            r.estimated_wait_s() for r in self.replicas if r.available()
        ]
        return min(waits) if waits else float("inf")

    def _pick(self, exclude: Sequence[Replica]) -> Optional[Replica]:
        excluded = set(id(r) for r in exclude)
        for replica in self.router.rank(self.replicas):
            if id(replica) not in excluded:
                return replica
        return None

    def _note(self, *, retries: int = 0, hedges: int = 0,
              corruption: int = 0) -> None:
        with self._lock:
            self._retries += retries
            self._hedges += hedges
            self._corruption_blocked += corruption

    @staticmethod
    def _wait_any(
        inflight: List[Tuple[Replica, _Pending]], until: float
    ) -> List[Tuple[Replica, _Pending]]:
        """Block until any in-flight pending finishes (or ``until``)."""
        if not inflight:
            return []
        if len(inflight) == 1:
            pending = inflight[0][1]
            pending.wait(max(0.0, until - time.perf_counter()))
            return [inflight[0]] if pending.done() else []
        while True:
            done = [(r, p) for r, p in inflight if p.done()]
            if done:
                return done
            now = time.perf_counter()
            if now >= until:
                return []
            time.sleep(min(5e-4, until - now))

    def infer(
        self,
        x: np.ndarray,
        *,
        priority: str = "normal",
        timeout: Optional[float] = None,
    ) -> np.ndarray:
        """Serve one sample under the request's priority class and SLO.

        Raises :class:`Overloaded` (shed before queueing),
        :class:`DeadlineExceeded` (admitted but missed the deadline —
        queued work cancelled), or the final replica failure once the
        retry budget is exhausted.  Never hangs past the deadline.
        """
        if self._closed:
            raise RuntimeError(f"fleet {self.name!r} is closed")
        pclass = self.admission.resolve(priority)
        deadline_s = float(timeout) if timeout is not None else pclass.deadline_s
        start = time.perf_counter()
        deadline = start + deadline_s
        decision = self.admission.admit(
            pclass, self._best_wait_s(), deadline_s,
            can_degrade=self.fallback is not None
            and self.fallback.is_alive(),
        )
        try:
            if decision == DEGRADE:
                y = self._infer_fallback(x, deadline, deadline_s, pclass)
            else:
                assert decision == ACCEPT
                y = self._infer_replicated(x, deadline, deadline_s, pclass)
        except DeadlineExceeded:
            with self._lock:
                self._counts[pclass.name]["deadline_exceeded"] += 1
            raise
        except Overloaded:
            raise  # admission already counted the shed
        except Exception:
            with self._lock:
                self._counts[pclass.name]["errors"] += 1
            raise
        wall = time.perf_counter() - start
        with self._lock:
            self._counts[pclass.name]["completed"] += 1
            if decision == DEGRADE:
                self._counts[pclass.name]["degraded"] += 1
            self._lat[pclass.name].append(wall)
        return y

    def _infer_fallback(
        self, x: np.ndarray, deadline: float, deadline_s: float,
        pclass: PriorityClass,
    ) -> np.ndarray:
        session = self.fallback
        assert session is not None
        try:
            pending = session.submit(x)
        except RuntimeError as exc:
            raise Overloaded(
                f"fallback plan unavailable for {self.name!r}: {exc}",
                priority=pclass.name,
            ) from exc
        if not pending.wait(max(0.0, deadline - time.perf_counter())):
            pending.cancel()
            raise DeadlineExceeded(
                f"degraded request missed its deadline on {self.name!r}",
                priority=pclass.name,
                deadline_s=deadline_s,
            )
        y = pending.result(0)
        if not self._validate(y):
            self._note(corruption=1)
            raise CorruptedOutput(
                f"fallback plan of {self.name!r} returned an invalid "
                f"output"
            )
        return y

    def _infer_replicated(
        self, x: np.ndarray, deadline: float, deadline_s: float,
        pclass: PriorityClass,
    ) -> np.ndarray:
        retry = self.retry
        tried: List[Replica] = []
        inflight: List[Tuple[Replica, _Pending]] = []
        last_exc: Optional[BaseException] = None
        backoff = retry.backoff_base_s
        launched_at = 0.0
        try:
            while True:
                now = time.perf_counter()
                if now >= deadline:
                    break
                if not inflight:
                    if len(tried) >= retry.max_attempts:
                        break
                    replica = self._pick(tried)
                    if replica is None:
                        if last_exc is not None:
                            break  # every candidate already failed us
                        raise Overloaded(
                            f"no healthy replica available for "
                            f"{self.name!r}",
                            priority=pclass.name,
                            est_delay_s=float("inf"),
                            deadline_s=deadline_s,
                        )
                    if tried:
                        self._note(retries=1)
                        sleep = min(
                            backoff, max(0.0, deadline - now)
                        )
                        if sleep > 0:
                            time.sleep(sleep)
                        backoff = min(
                            backoff * retry.backoff_multiplier,
                            retry.backoff_max_s,
                        )
                    tried.append(replica)
                    try:
                        pending = replica.session.submit(x)
                    except Exception as exc:
                        replica.record_failure()
                        last_exc = exc
                        continue
                    inflight.append((replica, pending))
                    launched_at = time.perf_counter()
                # Hedge: the primary is slow and there is attempt
                # budget plus a distinct replica left.
                hedge_at: Optional[float] = None
                if (retry.hedge_after_s is not None
                        and len(inflight) == 1
                        and len(tried) < retry.max_attempts):
                    hedge_at = launched_at + retry.hedge_after_s
                    if time.perf_counter() >= hedge_at:
                        replica = self._pick(tried)
                        if replica is not None:
                            tried.append(replica)
                            try:
                                inflight.append(
                                    (replica, replica.session.submit(x))
                                )
                                self._note(hedges=1)
                            except Exception:
                                replica.record_failure()
                        hedge_at = None
                wake = min(deadline, hedge_at) if hedge_at else deadline
                for replica, pending in self._wait_any(inflight, wake):
                    inflight.remove((replica, pending))
                    try:
                        y = pending.result(0)
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as exc:
                        # BaseException, not Exception: a WorkerCrash
                        # that killed the replica's worker is stored
                        # on the pending and must read as "replica
                        # failed, try another", not escape the fleet.
                        replica.record_failure()
                        last_exc = exc
                        continue
                    if not self._validate(y):
                        replica.record_failure()
                        self._note(corruption=1)
                        last_exc = CorruptedOutput(
                            f"replica {replica.id} returned a "
                            f"non-finite output; refused to serve it"
                        )
                        continue
                    replica.record_success()
                    return y
        finally:
            # Whatever is still in flight is abandoned work: cancel it
            # so no replica burns batch capacity on it.
            for _, pending in inflight:
                pending.cancel()
        if time.perf_counter() >= deadline:
            raise DeadlineExceeded(
                f"request missed its deadline on {self.name!r} after "
                f"{len(tried)} attempt(s)",
                priority=pclass.name,
                deadline_s=deadline_s,
                last_error=repr(last_exc) if last_exc else None,
            )
        assert last_exc is not None
        raise last_exc

    # -- lifecycle / stats --------------------------------------------
    def stats(self) -> FleetStats:
        with self._lock:
            lat = {name: ring.snapshot() for name, ring in self._lat.items()}
            counts = {name: dict(c) for name, c in self._counts.items()}
            retries = self._retries
            hedges = self._hedges
            corruption_blocked = self._corruption_blocked
        per_priority: Dict[str, PriorityStats] = {}
        for name, window in lat.items():
            c = counts[name]
            per_priority[name] = PriorityStats(
                completed=c["completed"],
                degraded=c["degraded"],
                deadline_exceeded=c["deadline_exceeded"],
                errors=c["errors"],
                mean_latency_s=float(window.mean()) if window.size else 0.0,
                p50_latency_s=latency_quantile(window, 0.50),
                p95_latency_s=latency_quantile(window, 0.95),
                p99_latency_s=latency_quantile(window, 0.99),
            )
        return FleetStats(
            name=self.name,
            completed=sum(c["completed"] for c in counts.values()),
            retries=retries,
            hedges=hedges,
            corruption_blocked=corruption_blocked,
            admission=self.admission.stats(),
            per_priority=per_priority,
            replicas=[r.snapshot() for r in self.replicas],
        )

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._maintenance.join(timeout=10.0)
        for replica in self.replicas:
            replica.session.close()
        if self.fallback is not None:
            self.fallback.close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def deploy_fleet(
    model_name: str,
    devices: Sequence[DeviceSpec],
    *,
    replicas_per_device: int = 1,
    backend: str = "auto",
    image_hw: Tuple[int, int] = (8, 8),
    in_channels: int = 3,
    num_classes: int = 10,
    seed: int = 0,
    budget: float = 0.5,
    rank_step: int = 2,
    max_batch: int = 8,
    batch_window_s: float = 0.002,
    fallback_budget: Optional[float] = 0.3,
    router="least-loaded",
    admission: Optional[AdmissionController] = None,
    retry: Optional[RetryPolicy] = None,
    breaker: Optional[CircuitBreakerPolicy] = None,
    name: Optional[str] = None,
    formats: object = ("tucker",),
    threads: Optional[int] = None,
) -> ReplicaSet:
    """Deploy one model as a replicated fleet across devices.

    Builds the preset once, runs hardware-aware decomposition (against
    the first device — all replicas then serve numerically identical
    weights while each device gets its own plan/tilings/backends), and
    compiles ``replicas_per_device`` executables per device, each
    behind its own micro-batching session.  Replica restart factories
    re-compile from the cached per-device plan, so a circuit-breaker
    recovery costs a compile, not a re-plan.

    ``fallback_budget`` additionally compiles a cheaper plan (a more
    aggressive FLOPs budget -> lower ranks -> faster) that degradable
    traffic lands on under sustained overload; pass ``None`` to skip.

    ``threads`` is the parallel-engine lane count each replica's
    executable compiles with (``None`` = ``REPRO_NUM_THREADS`` /
    ``min(cores, 8)``).  All replicas — and replicas restarted by the
    circuit breaker, which re-run the same factory — share the one
    process-wide worker pool, so the fleet's pool footprint stays
    ``threads - 1`` workers regardless of replica count.
    """
    from repro.codesign.pipeline import decompose_for_device
    from repro.inference.executable import compile_plan
    from repro.inference.plan import plan_model
    from repro.models.introspection import trace_layer_sites
    from repro.models.registry import build_model
    from repro.planning.warmup import warm_model_backends

    devices = list(devices)
    if not devices:
        raise ValueError("deploy_fleet needs at least one device")
    if replicas_per_device < 1:
        raise ValueError("replicas_per_device must be >= 1")

    def build_decomposed(flops_budget: Optional[float]):
        model = build_model(model_name, num_classes=num_classes, seed=seed)
        if flops_budget is not None:
            decompose_for_device(
                model, devices[0], image_hw, in_channels=in_channels,
                budget=flops_budget, rank_step=rank_step, formats=formats,
            )
        model.eval()
        return model

    try:
        model = build_decomposed(budget)
    except ValueError:
        # Rank selection can legitimately decompose nothing (theta rule
        # / tight budget); a dense fleet still load-balances and heals.
        model = build_decomposed(None)
    sites = trace_layer_sites(model, image_hw, in_channels=in_channels)

    replicas: List[Replica] = []
    for device in devices:
        warm_model_backends(
            model, device, image_hw, in_channels=in_channels,
            backends=(backend,), sites=sites,
        )
        plan = plan_model(
            model, device, image_hw, in_channels=in_channels,
            core_backend=backend, model_name=model_name, sites=sites,
        )

        def factory(device=device, plan=plan) -> InferenceSession:
            executable = compile_plan(
                plan, model, device, image_hw=image_hw,
                in_channels=in_channels, max_batch=max_batch, sites=sites,
                threads=threads,
            )
            return InferenceSession(
                executable, batch_window_s=batch_window_s, warm=True,
            )

        for i in range(replicas_per_device):
            replicas.append(Replica(
                f"{model_name}@{device.name}#{i}",
                factory(),
                device=device,
                factory=factory,
                breaker=breaker,
            ))

    fallback: Optional[InferenceSession] = None
    if fallback_budget is not None:
        try:
            fb_model = build_decomposed(fallback_budget)
        except ValueError:
            fb_model = None
        if fb_model is not None:
            fb_sites = trace_layer_sites(
                fb_model, image_hw, in_channels=in_channels
            )
            fb_plan = plan_model(
                fb_model, devices[0], image_hw, in_channels=in_channels,
                core_backend=backend, model_name=f"{model_name}-fallback",
                sites=fb_sites,
            )
            fb_exe = compile_plan(
                fb_plan, fb_model, devices[0], image_hw=image_hw,
                in_channels=in_channels, max_batch=max_batch,
                sites=fb_sites, threads=threads,
            )
            fallback = InferenceSession(
                fb_exe, batch_window_s=batch_window_s, warm=True,
            )

    return ReplicaSet(
        name or model_name,
        replicas,
        router=router,
        admission=admission,
        fallback=fallback,
        retry=retry,
    )
