"""Serving runtime: micro-batching sessions and the registry."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.codesign.pipeline import decompose_for_device
from repro.gpusim.device import A100
from repro.inference import compile_model
from repro.models.registry import build_model
from repro.planning import warm_model_backends
from repro.serving import (
    FaultInjector,
    FaultSpec,
    InferenceSession,
    SessionRegistry,
    latency_quantile,
)

IMAGE_HW = (8, 8)


def make_executable(max_batch: int = 4):
    model = build_model("resnet_tiny", seed=0)
    decompose_for_device(model, A100, IMAGE_HW, budget=0.5, rank_step=2)
    model.eval()
    exe = compile_model(
        model, A100, image_hw=IMAGE_HW, core_backend="auto",
        max_batch=max_batch, model_name="resnet_tiny",
    )
    return model, exe


def test_session_matches_direct_execution():
    model, exe = make_executable()
    rng = np.random.default_rng(0)
    xs = [rng.standard_normal((3,) + IMAGE_HW) for _ in range(8)]
    with InferenceSession(exe) as session:
        ys = session.infer_many(xs, timeout=30.0)
    ref = model.forward(np.stack(xs))
    np.testing.assert_allclose(np.stack(ys), ref, atol=1e-8)


def test_session_micro_batches_under_load():
    _, exe = make_executable(max_batch=4)
    rng = np.random.default_rng(1)
    xs = rng.standard_normal((16, 3) + IMAGE_HW)
    with InferenceSession(exe) as session:
        handles = [session.submit(x) for x in xs]
        results = [h.result(timeout=30.0) for h in handles]
        stats = session.stats()
    assert len(results) == 16
    assert stats.requests == 16
    # 16 requests submitted ahead of the worker must coalesce: strictly
    # fewer batches than requests, none larger than max_batch.
    assert stats.batches < 16
    assert max(stats.batch_histogram) <= 4
    assert stats.mean_batch_size > 1.0
    assert stats.mean_latency_s > 0.0
    assert stats.p95_latency_s >= stats.mean_latency_s * 0.5


class _StubExecutable:
    """What a session reads of an Executable.  ``run`` records each
    batch size, blocks until ``gate`` is set, and echoes its input."""

    model_name = "stub"
    input_shape = (1, 2, 2)
    dtype = np.dtype(np.float64)

    def __init__(self, max_batch: int) -> None:
        self.max_batch = max_batch
        self.batches = []
        self.running = threading.Event()
        self.gate = threading.Event()
        self.gate.set()

    def predicted_latency(self) -> float:
        return 1e-3

    def run(self, x: np.ndarray) -> np.ndarray:
        self.batches.append(len(x))
        self.running.set()
        assert self.gate.wait(10.0)
        return x.copy()


def test_worker_runs_whatever_is_queued_when_free():
    """An idle worker runs a lone request at once; requests that arrive
    while a batch runs form the next batches, each up to max_batch."""
    exe = _StubExecutable(max_batch=4)
    exe.gate.clear()
    xs = [np.full(exe.input_shape, float(i)) for i in range(11)]
    with InferenceSession(exe, warm=False) as session:
        first = session.submit(xs[0])
        assert exe.running.wait(10.0)
        rest = [session.submit(x) for x in xs[1:]]
        assert exe.batches == [1]
        exe.gate.set()
        ys = [h.result(timeout=10.0) for h in [first, *rest]]
        stats = session.stats()
    assert exe.batches == [1, 4, 4, 2]
    assert stats.batch_histogram == {1: 1, 4: 2, 2: 1}
    for x, y in zip(xs, ys):
        np.testing.assert_array_equal(y, x)


def test_lone_requests_do_not_wait_for_company():
    """Sequential lone requests each run as soon as they are queued,
    never held back to wait for company."""
    exe = _StubExecutable(max_batch=4)
    handles = []
    with InferenceSession(exe, warm=False) as session:
        for i in range(20):
            handle = session.submit(np.full(exe.input_shape, float(i)))
            handle.result(timeout=10.0)
            handles.append(handle)
    assert exe.batches == [1] * 20
    assert np.median([h.latency for h in handles]) < 1e-3


def test_session_concurrent_clients():
    model, exe = make_executable(max_batch=4)
    rng = np.random.default_rng(2)
    xs = rng.standard_normal((4, 4, 3) + IMAGE_HW)
    outputs = {}

    def client(i):
        outputs[i] = [
            session.infer(x, timeout=30.0) for x in xs[i]
        ]

    with InferenceSession(exe) as session:
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    for i in range(4):
        ref = model.forward(xs[i])
        np.testing.assert_allclose(np.stack(outputs[i]), ref, atol=1e-8)


def test_session_rejects_bad_shapes_and_closed_use():
    _, exe = make_executable()
    session = InferenceSession(exe)
    with pytest.raises(ValueError, match="one sample"):
        session.submit(np.zeros((2, 3) + IMAGE_HW))  # batched submit
    with pytest.raises(ValueError, match="one sample"):
        session.submit(np.zeros((3, 4, 4)))  # wrong extent
    session.close()
    with pytest.raises(RuntimeError, match="closed"):
        session.submit(np.zeros((3,) + IMAGE_HW))
    session.close()  # idempotent


def test_concurrent_close_is_safe():
    """Regression (lock-discipline): ``close()`` used to check-and-set
    ``_closed`` without the swap lock, racing the serve loop's fatal
    path and other closers.  Concurrent closes must all return cleanly
    and leave the worker joined."""
    _, exe = make_executable()
    session = InferenceSession(exe)
    barrier = threading.Barrier(6)

    def closer():
        barrier.wait()
        session.close()

    threads = [threading.Thread(target=closer) for _ in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not session.stats().worker_alive
    with pytest.raises(RuntimeError, match="closed"):
        session.submit(np.zeros((3,) + IMAGE_HW))


def test_registry_deploys_and_reuses_sessions():
    registry = SessionRegistry()
    try:
        session = registry.create(
            "resnet_tiny", A100, image_hw=IMAGE_HW, budget=0.5,
            max_batch=2,
        )
        key = registry.session_key("resnet_tiny", A100, "auto")
        assert registry.names() == (key,)
        assert registry.get(key) is session
        # Second create under the same key reuses the deployment.
        assert registry.create(
            "resnet_tiny", A100, image_hw=IMAGE_HW, budget=0.5,
        ) is session
        y = session.infer(
            np.random.default_rng(3).standard_normal((3,) + IMAGE_HW),
            timeout=30.0,
        )
        assert y.shape == (10,)
        with pytest.raises(KeyError, match="no session"):
            registry.get("nope")
        with pytest.raises(ValueError, match="already exists"):
            registry.add(key, session)
    finally:
        registry.close_all()
    assert registry.names() == ()


def test_registry_concurrent_create_same_key_reuses():
    """Racing deploys of one key must converge on a single session."""
    registry = SessionRegistry()
    results = [None] * 4

    def deploy(i):
        results[i] = registry.create(
            "resnet_tiny", A100, image_hw=IMAGE_HW, budget=0.5,
        )

    try:
        threads = [
            threading.Thread(target=deploy, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r is results[0] for r in results)
        assert len(registry.names()) == 1
    finally:
        registry.close_all()


def test_close_rejects_queued_requests_instead_of_hanging():
    """A submit that races close() must error, not block forever.

    Reproduces the race deterministically: the request is enqueued
    *behind* the shutdown sentinel (as a preempted submit would), then
    close() runs.  The waiter must get a RuntimeError.
    """
    from repro.serving.session import _SENTINEL

    _, exe = make_executable()
    session = InferenceSession(exe)
    session._queue.put(_SENTINEL)  # worker will begin shutting down
    handle = session.submit(np.zeros((3,) + IMAGE_HW))
    session.close()
    with pytest.raises(RuntimeError, match="session closed"):
        handle.result(timeout=5.0)


def test_stats_window_is_bounded_under_sustained_load():
    """Heavy traffic must not grow the latency history without bound
    (and quantiles are computed over the bounded window)."""
    _, exe = make_executable(max_batch=4)
    with InferenceSession(exe, stats_window=64) as session:
        xs = np.random.default_rng(5).standard_normal((200, 3) + IMAGE_HW)
        for x in xs:
            session.infer(x, timeout=30.0)
        stats = session.stats()
        assert stats.requests == 200
        assert stats.latency_window == 64
        assert len(session._latencies) == 64
        assert session._latencies.capacity == 64
        assert stats.mean_latency_s > 0
        assert stats.p50_latency_s <= stats.p95_latency_s


def test_p95_is_a_real_quantile_not_the_max():
    """n=20 used to index lat[19] — the maximum, i.e. p100."""
    values = np.arange(1.0, 21.0)  # 20 distinct latencies
    p95 = latency_quantile(values, 0.95)
    assert p95 < values.max()
    assert p95 == pytest.approx(np.quantile(values, 0.95))
    assert latency_quantile(np.array([]), 0.95) == 0.0
    assert latency_quantile(np.array([3.0]), 0.95) == 3.0

    # End to end: inject a known window and read stats().
    _, exe = make_executable()
    with InferenceSession(exe) as session:
        with session._lock:
            session._latencies.extend(values)
        stats = session.stats()
    assert stats.p95_latency_s == pytest.approx(np.quantile(values, 0.95))
    assert stats.p95_latency_s < values.max()
    assert stats.p50_latency_s == pytest.approx(np.quantile(values, 0.50))


def test_infer_many_timeout_is_a_shared_deadline():
    """timeout=T bounds the whole call, not T per handle."""
    _, exe = make_executable(max_batch=1)
    real_run = exe.run

    def slow_run(x):
        time.sleep(0.08)
        return real_run(x)

    exe.run = slow_run
    session = InferenceSession(exe, warm=False)
    try:
        xs = np.random.default_rng(6).standard_normal((10, 3) + IMAGE_HW)
        t0 = time.perf_counter()
        with pytest.raises(TimeoutError):
            session.infer_many(list(xs), timeout=0.2)
        elapsed = time.perf_counter() - t0
        # Per-handle semantics would have served all 10 at ~80 ms each
        # without ever timing out (~0.8 s); the shared deadline fires
        # at ~0.2 s.
        assert elapsed < 0.6
    finally:
        session.close()


def _cast_model(model, dtype):
    for p in model.parameters():
        p.data = p.data.astype(dtype)
        p.grad = p.grad.astype(dtype)
    for mod in model.modules():
        buffers = getattr(mod, "_buffers", None)
        if buffers:
            for key, value in buffers.items():
                buffers[key] = np.asarray(value).astype(dtype)
    return model


def test_arena_dtype_follows_model_and_serving_never_casts():
    """A float32 model compiles a float32 arena (half the bytes) and
    the serving steady state performs zero hot-path casts."""
    model64, exe64 = make_executable(max_batch=2)
    assert exe64.dtype == np.float64  # the training stack is float64

    model32 = _cast_model(build_model("resnet_tiny", seed=0), np.float32)
    decompose_for_device(model32, A100, IMAGE_HW, budget=0.5, rank_step=2)
    _cast_model(model32, np.float32)  # decomposition re-derives float64
    model32.eval()
    exe32 = compile_model(
        model32, A100, image_hw=IMAGE_HW, core_backend="auto",
        max_batch=2, model_name="resnet_tiny",
    )
    assert exe32.dtype == np.float32
    assert exe32.arena.nbytes < exe64.arena.nbytes

    rng = np.random.default_rng(7)
    xs = rng.standard_normal((8, 3) + IMAGE_HW)  # float64 requests
    ref = model64.forward(xs)
    with InferenceSession(exe32) as session:
        ys = session.infer_many(list(xs), timeout=30.0)
        # Staging converts dtypes up front; Executable.run never casts.
        assert session.executable.hot_casts == 0
    assert ys[0].dtype == np.float32
    np.testing.assert_allclose(np.stack(ys), ref, atol=1e-3, rtol=1e-3)


def test_fault_swap_at_batch_boundary_under_concurrent_traffic():
    """Swapping the live executable (the chaos harness's infect, then
    cure) lands on batch boundaries: zero failed or diverging requests
    from four concurrent clients."""
    model, exe = make_executable(max_batch=4)
    rng = np.random.default_rng(8)
    xs = rng.standard_normal((16, 3) + IMAGE_HW)
    ref = model.forward(xs)
    errors = []
    outputs = [None] * 4
    session = InferenceSession(exe)

    def client(i):
        try:
            got = []
            for _ in range(6):
                for x in xs[i * 4 : (i + 1) * 4]:
                    got.append(session.infer(x, timeout=30.0))
            outputs[i] = got
        except Exception as exc:  # noqa: BLE001 - recorded for assert
            errors.append(exc)

    def wait_for(condition):
        deadline = time.perf_counter() + 30.0
        while not condition() and time.perf_counter() < deadline:
            time.sleep(0.001)

    try:
        threads = [
            threading.Thread(target=client, args=(i,)) for i in range(4)
        ]
        for t in threads:
            t.start()
        wait_for(lambda: session.stats().requests >= 4)
        injector = FaultInjector(seed=0)
        wrapped = injector.infect(session, FaultSpec(extra_latency_s=0.001))
        wait_for(lambda: wrapped.runs >= 2)
        assert injector.cure(session) is wrapped
        for t in threads:
            t.join()

        assert errors == []
        assert wrapped.runs >= 2
        assert session.executable is exe
        for i in range(4):
            for j, y in enumerate(outputs[i]):
                np.testing.assert_allclose(
                    y, ref[i * 4 + j % 4], atol=1e-6,
                )
        # Post-cure requests still match Module.forward.
        y = session.infer(xs[0], timeout=30.0)
        np.testing.assert_allclose(y, ref[0], atol=1e-6)
    finally:
        session.close()


def test_warm_for_model_covers_tucker_cores():
    model = build_model("resnet_tiny", seed=0)
    decompose_for_device(model, A100, IMAGE_HW, budget=0.5, rank_step=2)
    evaluations = warm_model_backends(
        model, A100, IMAGE_HW, backends=("auto",)
    )
    # auto expands to every registered backend; each reports a count.
    from repro.backends import backend_names

    assert set(evaluations) == set(backend_names())
    assert all(v >= 0 for v in evaluations.values())


def test_warm_for_model_dense_only_is_noop():
    model = build_model("resnet_tiny", seed=0)  # no Tucker sites
    assert warm_model_backends(model, A100, IMAGE_HW) == {}


# ---------------------------------------------------------------------------
# The per-request handle
# ---------------------------------------------------------------------------

def test_finished_handle_is_small():
    """A finished handle holds its result plus a few hundred bytes:
    callers may keep every handle, so a ``threading.Event`` (over
    1 KB each on CPython) would grow their memory with every request."""
    import tracemalloc

    from repro.serving.session import _Pending

    result = np.zeros(10)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        handles = [_Pending() for _ in range(1000)]
        for handle in handles:
            handle._finish(result)
        per_handle = (tracemalloc.get_traced_memory()[0] - before) / 1000
    finally:
        tracemalloc.stop()
    assert per_handle < 400, per_handle


def test_handle_concurrent_waiters_with_timeouts():
    """The fleet's hedging path: several threads wait on one handle
    with different timeouts while the worker finishes it."""
    from repro.serving.session import _Pending

    handle = _Pending()
    assert not handle.done()
    assert handle.wait(0) is False and handle.wait(-1.0) is False
    outcomes = {}

    def waiter(name, fn):
        outcomes[name] = fn()

    waiters = {
        "short_a": lambda: handle.wait(0.01),
        "short_b": lambda: handle.wait(0.02),
        "long": lambda: handle.wait(10.0),
        "forever": lambda: handle.wait(None),
        "result": lambda: handle.result(10.0),
    }
    threads = [threading.Thread(target=waiter, args=item)
               for item in waiters.items()]
    for t in threads:
        t.start()
    time.sleep(0.1)
    y = np.arange(3.0)
    handle._finish(y)
    for t in threads:
        t.join(10.0)
    assert outcomes["short_a"] is False and outcomes["short_b"] is False
    assert outcomes["long"] is True and outcomes["forever"] is True
    assert outcomes["result"] is y
    assert handle.done() and handle.wait(0) and handle.wait(None)
    handle._finish(None, RuntimeError("late"))   # a second finish: no-op
    assert handle.result(0) is y
    assert handle.cancel() is False and not handle.cancelled
    assert handle.latency is not None and handle.latency > 0

    abandoned = _Pending()
    with pytest.raises(TimeoutError):
        abandoned.result(0.01)
    assert abandoned.cancelled and not abandoned.done()


def test_serving_import_path_loads_no_scipy():
    """Importing the deploy and serving entry points loads no SciPy:
    only EVBMF, the MUSCO comparator's rank estimator, needs it, and it
    imports SciPy inside the call.  A fresh interpreter, since this one
    may have imported SciPy for other tests."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "import repro.serving, repro.inference, repro.codesign.pipeline\n"
        "import repro.models.registry, repro.cli\n"
        "loaded = sorted(m for m in sys.modules\n"
        "                if m == 'scipy' or m.startswith('scipy.'))\n"
        "sys.exit(f'SciPy loaded: {loaded}' if loaded else 0)\n"
    )
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
