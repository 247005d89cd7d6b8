"""Fleet serving: replicas, admission, routing, chaos, and the
session-level robustness fixes that ride along (cancellation, serve-loop
fault containment)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.codesign.pipeline import decompose_for_device
from repro.gpusim.device import A100, RTX2080TI
from repro.inference import compile_model
from repro.models.registry import build_model
from repro.serving import (
    AdmissionController,
    CircuitBreakerPolicy,
    CorruptedOutput,
    DeadlineExceeded,
    FaultInjector,
    FaultSpec,
    InferenceSession,
    InjectedFault,
    LeastLoadedRouter,
    Overloaded,
    PriorityClass,
    Replica,
    ReplicaSet,
    RequestCancelled,
    RetryPolicy,
    RoundRobinRouter,
    WorkerCrash,
    deploy_fleet,
    make_router,
)

IMAGE_HW = (8, 8)


def make_executable(max_batch: int = 4, budget: float = 0.5):
    model = build_model("resnet_tiny", seed=0)
    decompose_for_device(model, A100, IMAGE_HW, budget=budget, rank_step=2)
    model.eval()
    exe = compile_model(
        model, A100, image_hw=IMAGE_HW, core_backend="auto",
        max_batch=max_batch, model_name="resnet_tiny",
    )
    return model, exe


def make_session(max_batch: int = 4, **kwargs) -> InferenceSession:
    _, exe = make_executable(max_batch=max_batch)
    return InferenceSession(exe, **kwargs)


def make_fleet(
    n: int = 2,
    *,
    fallback: bool = False,
    breaker: CircuitBreakerPolicy | None = None,
    retry: RetryPolicy | None = None,
    admission: AdmissionController | None = None,
    router="least-loaded",
) -> tuple:
    """N identical replicas over one compiled model (fresh sessions)."""
    model, _ = make_executable()

    def factory() -> InferenceSession:
        _, exe = make_executable()
        return InferenceSession(exe)

    replicas = [
        Replica(f"r{i}", factory(), factory=factory, breaker=breaker)
        for i in range(n)
    ]
    fb = None
    if fallback:
        _, fb_exe = make_executable(budget=0.7)
        fb = InferenceSession(fb_exe)
    fleet = ReplicaSet(
        "test", replicas, fallback=fb, retry=retry,
        admission=admission, router=router,
    )
    return model, fleet


def sample(seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((3,) + IMAGE_HW)


# ---------------------------------------------------------------------
# Satellite 1: request cancellation


def test_result_timeout_cancels_request():
    session = make_session(max_batch=1)
    inj = FaultInjector(seed=0)
    # Every run is slow: queued requests sit long enough to time out.
    inj.infect(session, FaultSpec(extra_latency_s=0.05))
    with session:
        handles = [session.submit(sample(i)) for i in range(6)]
        # The tail of the queue cannot make a 1 ms deadline.
        with pytest.raises(TimeoutError):
            handles[-1].result(timeout=0.001)
        assert handles[-1].cancelled
        # The worker must reap it: finished with RequestCancelled, not
        # computed.
        with pytest.raises(RequestCancelled):
            handles[-1].result(timeout=10.0)
        for h in handles[:-1]:
            h.result(timeout=10.0)
        stats = session.stats()
    assert stats.cancelled == 1
    # The cancelled request never reached the executable: only the five
    # live requests were batched and served (singletons, max_batch=1).
    assert stats.requests == 5
    assert stats.batches == 5


def test_cancel_is_noop_after_completion():
    session = make_session()
    with session:
        pending = session.submit(sample())
        y = pending.result(timeout=10.0)
        assert not pending.cancel()  # too late: result already landed
        assert not pending.cancelled
        np.testing.assert_array_equal(pending.result(timeout=0), y)


# ---------------------------------------------------------------------
# Satellite 2: serve loop contains executable exceptions


def test_serve_loop_survives_executable_exception():
    session = make_session(max_batch=2)
    inj = FaultInjector(seed=1)
    wrapped = inj.infect(session, FaultSpec(exception_p=1.0, after_runs=0))
    with session:
        with pytest.raises(InjectedFault):
            session.infer(sample(), timeout=10.0)
        stats_mid = session.stats()
        assert stats_mid.worker_alive  # the worker contained the fault
        assert stats_mid.failures == 1
        assert "InjectedFault" in (stats_mid.last_error or "")
        FaultInjector.cure(session)
        y = session.infer(sample(), timeout=10.0)  # still serving
        assert np.isfinite(y).all()
    assert wrapped.injected["exception"] == 1


def test_worker_crash_fails_batch_and_rejects_queue():
    session = make_session(max_batch=1)
    inj = FaultInjector(seed=2)
    inj.infect(session, FaultSpec(crash_p=1.0))
    first = session.submit(sample(0))
    with pytest.raises(WorkerCrash):
        first.result(timeout=10.0)
    stats = session.stats()
    assert not stats.worker_alive
    assert stats.failures >= 1
    # Closed by the crash: later submits raise immediately, never hang.
    with pytest.raises(RuntimeError):
        session.submit(sample(1))


# ---------------------------------------------------------------------
# Satellite 4: infer_many shared deadline; close/submit ordering


def test_infer_many_shared_deadline_with_slow_worker():
    session = make_session(max_batch=1)
    inj = FaultInjector(seed=3)
    inj.infect(session, FaultSpec(extra_latency_s=0.05))
    xs = [sample(i) for i in range(10)]
    start = time.perf_counter()
    with session:
        with pytest.raises(TimeoutError):
            # Per-handle deadlines would allow ~10 x 0.12 s; the shared
            # deadline must cut the whole call off at ~0.12 s.
            session.infer_many(xs, timeout=0.12)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    # Every handle still queued at the deadline was cancelled, so the
    # worker skipped it instead of serving nobody.
    assert session.stats().cancelled >= 7


def test_submit_after_close_raises_immediately():
    session = make_session()
    session.close()
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="closed"):
        session.submit(sample())
    assert time.perf_counter() - start < 1.0
    # infer too (the sugar path), and it must not hang either.
    with pytest.raises(RuntimeError, match="closed"):
        session.infer(sample())


# ---------------------------------------------------------------------
# Chaos harness determinism


def test_fault_injection_is_deterministic():
    spec = FaultSpec(exception_p=0.2, corrupt_p=0.2, latency_spike_p=0.1,
                     latency_spike_s=0.0)

    def run_sequence(seed: int) -> list:
        _, exe = make_executable(max_batch=1)
        wrapped = FaultInjector(seed=seed).wrap(exe, spec)
        events = []
        x = np.zeros((1, 3) + IMAGE_HW)
        for _ in range(40):
            try:
                y = wrapped.run(x)
                events.append("corrupt" if np.isnan(y).any() else "ok")
            except InjectedFault:
                events.append("exc")
        return events

    a, b = run_sequence(123), run_sequence(123)
    assert a == b
    assert "exc" in a and "corrupt" in a and "ok" in a
    assert run_sequence(321) != a


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(exception_p=0.8, corrupt_p=0.5)  # sums > 1
    with pytest.raises(ValueError):
        FaultSpec(crash_p=-0.1)
    with pytest.raises(ValueError):
        FaultSpec(extra_latency_s=-1.0)


def test_corruption_poisons_copy_not_arena():
    _, exe = make_executable(max_batch=1)
    wrapped = FaultInjector(seed=0).wrap(exe, FaultSpec(corrupt_p=1.0))
    x = np.zeros((1, 3) + IMAGE_HW)
    bad = wrapped.run(x)
    assert np.isnan(bad).all()
    healthy = exe.run(x)  # the arena output must be untouched
    assert np.isfinite(healthy).all()


# ---------------------------------------------------------------------
# Routers


class _FakeReplica:
    def __init__(self, rid, wait, alive=True):
        self.id = rid
        self._wait = wait
        self._alive = alive

    def available(self):
        return self._alive

    def estimated_wait_s(self):
        return self._wait


def test_least_loaded_ranks_by_estimated_wait():
    fast = _FakeReplica("fast", 0.001)
    slow = _FakeReplica("slow", 0.1)
    dead = _FakeReplica("dead", 0.0, alive=False)
    ranking = LeastLoadedRouter().rank([slow, dead, fast])
    assert [r.id for r in ranking] == ["fast", "slow"]


def test_round_robin_rotates():
    replicas = [_FakeReplica(f"r{i}", 0.0) for i in range(3)]
    router = RoundRobinRouter()
    firsts = [router.rank(replicas)[0].id for _ in range(6)]
    assert firsts == ["r0", "r1", "r2", "r0", "r1", "r2"]


def test_make_router_resolves_and_validates():
    assert isinstance(make_router("round-robin"), RoundRobinRouter)
    with pytest.raises(KeyError, match="least-loaded"):
        make_router("nope")
    with pytest.raises(TypeError):
        make_router(object())


# ---------------------------------------------------------------------
# Admission control


def test_admission_sheds_predicted_deadline_miss():
    ctrl = AdmissionController()
    pclass = ctrl.resolve("high")
    assert ctrl.admit(pclass, est_delay_s=0.01, deadline_s=1.0) == "accept"
    with pytest.raises(Overloaded) as info:
        ctrl.admit(pclass, est_delay_s=5.0, deadline_s=1.0)
    assert info.value.priority == "high"
    assert info.value.est_delay_s == 5.0
    stats = ctrl.stats()
    assert stats.shed["high"] == 1 and stats.admitted["high"] == 1


def test_admission_degrades_low_priority_instead_of_shedding():
    ctrl = AdmissionController()
    low = ctrl.resolve("low")
    decision = ctrl.admit(low, est_delay_s=5.0, deadline_s=1.0,
                          can_degrade=True)
    assert decision == "degrade"
    # Without a fallback available the same request is shed.
    with pytest.raises(Overloaded):
        ctrl.admit(low, est_delay_s=5.0, deadline_s=1.0, can_degrade=False)


def test_admission_degraded_mode_hysteresis():
    ctrl = AdmissionController(pressure_window=16, degrade_enter=0.5,
                               degrade_exit=0.1, min_samples=4)
    low = ctrl.resolve("low")
    for _ in range(8):  # sustained pressure -> degraded mode
        ctrl.admit(low, est_delay_s=5.0, deadline_s=1.0, can_degrade=True)
    assert ctrl.degraded
    # Still degrading even when an individual request is not pressured.
    assert ctrl.admit(low, 0.0, 1.0, can_degrade=True) == "degrade"
    for _ in range(32):  # pressure clears -> exits degraded mode
        ctrl.admit(low, 0.0, 1.0, can_degrade=True)
    assert not ctrl.degraded
    assert ctrl.admit(low, 0.0, 1.0, can_degrade=True) == "accept"


def test_admission_rejects_unknown_class_and_bad_config():
    ctrl = AdmissionController()
    with pytest.raises(KeyError, match="available"):
        ctrl.resolve("platinum")
    with pytest.raises(ValueError):
        AdmissionController(())
    with pytest.raises(ValueError):
        AdmissionController(degrade_enter=0.1, degrade_exit=0.5)
    with pytest.raises(ValueError):
        PriorityClass("bad", 0, deadline_s=0.0)


# ---------------------------------------------------------------------
# The fleet


def test_fleet_matches_direct_execution():
    model, fleet = make_fleet(n=2)
    rng = np.random.default_rng(0)
    xs = [rng.standard_normal((3,) + IMAGE_HW) for _ in range(8)]
    with fleet:
        ys = [fleet.infer(x, priority="normal", timeout=30.0) for x in xs]
    ref = model.forward(np.stack(xs))
    np.testing.assert_allclose(np.stack(ys), ref, atol=1e-8)
    stats = fleet.stats()
    assert stats.completed == 8
    assert stats.per_priority["normal"].completed == 8
    assert stats.per_priority["normal"].p99_latency_s > 0


def test_fleet_sheds_when_no_replica_can_meet_deadline():
    _, fleet = make_fleet(n=1)
    inj = FaultInjector(seed=4)
    # A modeled slow device: prediction honestly reports the slowdown,
    # so admission sees est_delay >> deadline and sheds up front.
    inj.infect(fleet.replicas[0].session, FaultSpec(extra_latency_s=0.2))
    with fleet:
        with pytest.raises(Overloaded) as info:
            fleet.infer(sample(), priority="high", timeout=0.01)
        assert info.value.priority == "high"
        assert fleet.stats().admission.shed["high"] == 1


def test_fleet_degrades_low_priority_to_fallback():
    _, fleet = make_fleet(n=1, fallback=True)
    inj = FaultInjector(seed=5)
    inj.infect(fleet.replicas[0].session, FaultSpec(extra_latency_s=0.2))
    with fleet:
        # Deadline below the slow replica's (honest) 200 ms prediction:
        # a high request would be shed; degradable low traffic lands on
        # the cheap fallback plan instead and completes in time.
        y = fleet.infer(sample(), priority="low", timeout=0.1)
        assert np.isfinite(y).all()
        stats = fleet.stats()
        assert stats.per_priority["low"].degraded == 1
        # The primary replica never ran it.
        assert stats.replicas[0].session.requests == 0


def test_fleet_retries_on_replica_exception():
    _, fleet = make_fleet(n=2, retry=RetryPolicy(max_attempts=2))
    inj = FaultInjector(seed=6)
    # r0 always raises; r1 is healthy. Every request must still land.
    inj.infect(fleet.replicas[0].session, FaultSpec(exception_p=1.0))
    with fleet:
        for i in range(6):
            y = fleet.infer(sample(i), priority="normal", timeout=10.0)
            assert np.isfinite(y).all()
        stats = fleet.stats()
    assert stats.completed == 6
    assert stats.retries >= 1
    r0 = next(r for r in stats.replicas if r.replica_id == "r0")
    assert r0.failures >= 1


def test_fleet_refuses_corrupted_outputs():
    _, fleet = make_fleet(n=2, retry=RetryPolicy(max_attempts=2))
    inj = FaultInjector(seed=7)
    inj.infect(fleet.replicas[0].session, FaultSpec(corrupt_p=1.0))
    with fleet:
        for i in range(6):
            y = fleet.infer(sample(i), priority="normal", timeout=10.0)
            # NaN-poisoned answers must never be served.
            assert np.isfinite(y).all()
        stats = fleet.stats()
    assert stats.corruption_blocked >= 1


def test_circuit_breaker_opens_restarts_and_readmits():
    breaker = CircuitBreakerPolicy(failure_threshold=2,
                                   reset_timeout_s=0.05)
    _, fleet = make_fleet(n=2, breaker=breaker,
                          retry=RetryPolicy(max_attempts=2))
    inj = FaultInjector(seed=8)
    inj.infect(fleet.replicas[0].session, FaultSpec(exception_p=1.0))
    with fleet:
        for i in range(8):
            fleet.infer(sample(i), priority="normal", timeout=10.0)
        # r0 accumulated consecutive failures: the breaker must trip.
        deadline = time.perf_counter() + 10.0
        r0 = fleet.replicas[0]
        while r0.state == "closed" and time.perf_counter() < deadline:
            try:
                fleet.infer(sample(), priority="normal", timeout=10.0)
            except Exception:
                pass
            time.sleep(0.01)
        assert r0.state != "closed"
        # Maintenance walks it through restart -> probe -> readmission;
        # the restarted session is a fresh compile without the fault.
        while not (r0.state == "closed" and r0.restarts >= 1):
            assert time.perf_counter() < deadline, (
                f"breaker stuck in state {r0.state!r}"
            )
            time.sleep(0.02)
        assert r0.session.is_alive()
        y = fleet.infer(sample(), priority="normal", timeout=10.0)
        assert np.isfinite(y).all()


def test_fleet_recovers_from_worker_death():
    breaker = CircuitBreakerPolicy(failure_threshold=3,
                                   reset_timeout_s=0.05)
    _, fleet = make_fleet(n=2, breaker=breaker,
                          retry=RetryPolicy(max_attempts=2))
    inj = FaultInjector(seed=9)
    inj.infect(fleet.replicas[0].session, FaultSpec(crash_p=1.0))
    with fleet:
        # Every request completes despite one replica's worker dying.
        for i in range(8):
            y = fleet.infer(sample(i), priority="normal", timeout=10.0)
            assert np.isfinite(y).all()
        deadline = time.perf_counter() + 10.0
        r0 = fleet.replicas[0]
        while not (r0.state == "closed" and r0.restarts >= 1):
            assert time.perf_counter() < deadline, (
                f"dead worker not recovered, state {r0.state!r}"
            )
            time.sleep(0.02)
        assert r0.session.is_alive()


def test_hedged_request_wins_against_slow_replica():
    retry = RetryPolicy(max_attempts=2, hedge_after_s=0.01)
    _, fleet = make_fleet(n=2, retry=retry)
    inj = FaultInjector(seed=10)
    # r0 is slow but honest about it... except routers are per-request;
    # force r0 first via round-robin so the hedge has something to beat.
    inj.infect(fleet.replicas[0].session,
               FaultSpec(extra_latency_s=0.15))
    fleet.router = make_router("round-robin")
    with fleet:
        start = time.perf_counter()
        y = fleet.infer(sample(), priority="high", timeout=10.0)
        elapsed = time.perf_counter() - start
        assert np.isfinite(y).all()
        stats = fleet.stats()
    # The hedge fired and the fast replica answered well before the
    # slow replica's 150 ms sleep.
    assert stats.hedges == 1
    assert elapsed < 0.15


def test_fleet_deadline_exceeded_is_typed_and_prompt():
    _, fleet = make_fleet(n=1, retry=RetryPolicy(max_attempts=1))
    inj = FaultInjector(seed=11)
    inj.infect(fleet.replicas[0].session, FaultSpec(extra_latency_s=0.05))
    with fleet:
        # Queue enough work that the last request is admitted (est
        # delay below its generous deadline is not required — use a
        # deadline the slowdown cannot meet but admission lets by).
        start = time.perf_counter()
        with pytest.raises((DeadlineExceeded, Overloaded)):
            fleet.infer(sample(), priority="normal", timeout=0.04)
        assert time.perf_counter() - start < 2.0
        stats = fleet.stats()
    assert (stats.per_priority["normal"].deadline_exceeded
            + sum(stats.admission.shed.values())) >= 1


@pytest.mark.parametrize("path", ["replicated", "fallback"])
def test_deadline_exceeded_reports_the_request_deadline(path):
    # A latency spike the prediction does not show: admission lets the
    # request through and the run misses its 50 ms deadline.
    spike = FaultSpec(latency_spike_p=1.0, latency_spike_s=0.3)
    _, fleet = make_fleet(n=1, fallback=path == "fallback",
                          retry=RetryPolicy(max_attempts=1))
    inj = FaultInjector(seed=12)
    if path == "fallback":
        # The primary honestly predicts a miss, so low traffic degrades.
        inj.infect(fleet.replicas[0].session,
                   FaultSpec(extra_latency_s=0.2))
        inj.infect(fleet.fallback, spike)
    else:
        inj.infect(fleet.replicas[0].session, spike)
    with fleet:
        with pytest.raises(DeadlineExceeded) as info:
            fleet.infer(sample(), priority="low", timeout=0.05)
        degraded = fleet.stats().admission.degraded.get("low", 0)
    assert degraded == (1 if path == "fallback" else 0)
    assert info.value.deadline_s == 0.05


def test_fleet_unknown_priority_and_closed_errors():
    _, fleet = make_fleet(n=1)
    with fleet:
        with pytest.raises(KeyError, match="available"):
            fleet.infer(sample(), priority="platinum")
    with pytest.raises(RuntimeError, match="closed"):
        fleet.infer(sample(), priority="normal")


def test_replica_set_validates_construction():
    with pytest.raises(ValueError, match="at least one"):
        ReplicaSet("empty", [])
    session_a = make_session()
    session_b = make_session()
    try:
        with pytest.raises(ValueError, match="duplicate"):
            ReplicaSet("dup", [Replica("r0", session_a),
                               Replica("r0", session_b)])
    finally:
        session_a.close()
        session_b.close()


@pytest.mark.parametrize("fallback_budget", [0.3, 0.5])
def test_deploy_fleet_rejects_fallback_no_cheaper_than_primary(
    fallback_budget,
):
    # Budgets are FLOPs-reduction fractions: a fallback at or below the
    # primary's would reduce no more than the primary does.
    with pytest.raises(ValueError, match="fallback_budget"):
        deploy_fleet("resnet_tiny", [A100], image_hw=IMAGE_HW, budget=0.5,
                     fallback_budget=fallback_budget)


def test_policy_validation():
    with pytest.raises(ValueError):
        CircuitBreakerPolicy(failure_threshold=0)
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(hedge_after_s=-1.0)


def test_fleet_concurrent_clients_all_complete():
    _, fleet = make_fleet(n=2, retry=RetryPolicy(max_attempts=3))
    inj = FaultInjector(seed=12)
    inj.infect(fleet.replicas[0].session,
               FaultSpec(exception_p=0.3, latency_spike_p=0.1,
                         latency_spike_s=0.005))
    outcomes: dict = {}

    def client(i):
        got = errs = 0
        for j in range(5):
            try:
                y = fleet.infer(sample(i * 10 + j), priority="normal",
                                timeout=10.0)
                assert np.isfinite(y).all()
                got += 1
            except (Overloaded, DeadlineExceeded, CorruptedOutput):
                errs += 1
        outcomes[i] = (got, errs)

    with fleet:
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
            assert not t.is_alive(), "client hung: a future never resolved"
    # Every request terminated (completed or typed error) — none hung.
    assert sum(g + e for g, e in outcomes.values()) == 20
    assert sum(g for g, _ in outcomes.values()) >= 15
