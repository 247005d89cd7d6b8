"""Serving runtime: micro-batched inference sessions over Executables.

An :class:`InferenceSession` owns one compiled
:class:`~repro.inference.Executable` and a single worker thread.
Callers submit single samples (``(C, H, W)``); the worker is
work-conserving: once free, it stages whatever is queued (up to the
executable's ``max_batch``) into a preallocated batch buffer and runs
one forward, never waiting for more arrivals — requests that land
meanwhile form the next batch.  Steady-state serving allocates no new
activation buffers per request: the staging buffer and the
executable's arena are reused for every batch, and the staging buffer
is allocated in the arena dtype so ``Executable.run`` never casts
(``Executable.hot_casts`` stays zero).

Statistics are bounded: per-request latencies land in a fixed-size
ring (default ~4096 samples), so a session serving heavy traffic holds
constant memory, and :meth:`InferenceSession.stats` copies the window
under the lock but sorts/quantiles *off*-lock — the worker never
stalls behind a stats reader.

The session also reports measured-vs-predicted **drift**: each batch
records the ratio of per-sample wall time to the executable's
predicted (simulated GPU) latency over a sliding window.  It is a
statistic only; nothing re-plans from it.  The executable behind a
live session changes only through the chaos harness
(:meth:`~repro.serving.faults.FaultInjector.infect` / ``cure``), at a
batch boundary under the session's swap lock.

:class:`SessionRegistry` keeps named sessions per (model, device,
backend) and builds new ones through the full pipeline: build model →
hardware-aware decomposition (:func:`repro.codesign.decompose_for_device`)
→ backend warm-up (:func:`repro.planning.warm_model_backends`, filling
the PlanCache subsystem) → ``plan_model`` → ``compile_plan`` → warm run.
"""

from __future__ import annotations

import math
import queue
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.inference.executable import Executable, compile_plan
from repro.inference.plan import plan_model
from repro.planning.warmup import warm_model_backends

_SENTINEL = object()

#: Per-batch measured/predicted ratios retained for ``drift_ratio``.
DRIFT_WINDOW = 64


class RequestCancelled(RuntimeError):
    """The request was cancelled (caller timeout or hedge loser) before
    its micro-batch ran; the worker skipped it instead of computing an
    answer nobody is waiting for."""


def latency_quantile(latencies: np.ndarray, q: float) -> float:
    """Proper linear-interpolation quantile of a latency sample.

    The historical p95 used ``lat[min(len - 1, int(0.95 * len))]``,
    which for common sizes indexes past the 95th rank and returns the
    *maximum* (n=20 → index 19 = p100).  ``np.quantile`` interpolates
    between order statistics, so small windows report a real p95.
    """
    if latencies.size == 0:
        return 0.0
    return float(np.quantile(latencies, q))


class _Ring:
    """Fixed-capacity overwrite-oldest sample buffer.

    Appends are O(1) into a preallocated array — no per-request
    allocation, no unbounded growth.  ``snapshot`` copies the valid
    region so statistics can be computed outside any lock.
    """

    __slots__ = ("_buf", "_count", "_idx")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        self._buf = np.zeros(int(capacity), dtype=np.float64)
        self._count = 0
        self._idx = 0

    @property
    def capacity(self) -> int:
        return len(self._buf)

    def append(self, value: float) -> None:
        self._buf[self._idx] = value
        self._idx = (self._idx + 1) % len(self._buf)
        if self._count < len(self._buf):
            self._count += 1

    def extend(self, values) -> None:
        for value in values:
            self.append(value)

    def snapshot(self) -> np.ndarray:
        return self._buf[: self._count].copy()

    def __len__(self) -> int:
        return self._count


class _Pending:
    """Handle for one submitted request (a tiny future).

    Completion is signalled by a lock acquired at creation and
    released by the first :meth:`_finish`: a pre-acquired
    ``threading.Lock`` holds about a tenth of the memory of a
    ``threading.Event``, and callers may keep every finished handle.
    """

    __slots__ = ("_lock", "_result", "_error", "_cancelled",
                 "enqueued_at", "done_at")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._lock.acquire()
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None
        self._cancelled = False
        self.enqueued_at = time.perf_counter()
        self.done_at: Optional[float] = None

    def _finish(self, result: Optional[np.ndarray],
                error: Optional[BaseException] = None) -> None:
        """Record the outcome and wake every waiter; only the worker
        thread finishes a handle, and a second finish is a no-op."""
        if self.done_at is not None:
            return
        self._result = result
        self._error = error
        self.done_at = time.perf_counter()
        self._lock.release()

    def done(self) -> bool:
        return self.done_at is not None

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until finished (or ``timeout``; None waits forever, a
        timeout <= 0 polls); True when done."""
        if self.done_at is not None:
            return True
        if timeout is None:
            got = self._lock.acquire()
        elif timeout <= 0:
            got = self._lock.acquire(False)
        else:
            got = self._lock.acquire(True, timeout)
        if got:
            # Pass the wake-up on to the next waiter.
            self._lock.release()
        return got

    def cancel(self) -> bool:
        """Best-effort cancellation of a still-queued request.

        Marks the pending so the worker skips it instead of burning
        micro-batch capacity on abandoned work.  Returns False when the
        request already finished; a request the worker has already
        staged may still be computed (its result is simply discarded).
        """
        if self.done_at is not None:
            return False
        self._cancelled = True
        return True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the micro-batch containing this request ran.

        On timeout the request is *cancelled*: the worker will skip it
        if it is still queued, so an abandoned waiter never costs batch
        capacity.
        """
        if not self.wait(timeout):
            self.cancel()
            raise TimeoutError("inference request timed out")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    @property
    def latency(self) -> Optional[float]:
        """Enqueue-to-completion wall seconds (None while pending)."""
        if self.done_at is None:
            return None
        return self.done_at - self.enqueued_at


@dataclass
class SessionStats:
    """Steady-state serving counters for one session.

    Latency quantiles are computed over a bounded sliding window of
    the most recent ``latency_window`` requests (the ring's fill), not
    the full history.  ``drift_ratio`` is the geometric mean of
    per-batch measured/predicted per-sample wall-time ratios over the
    drift window (0.0 until the first batch).
    """

    requests: int
    batches: int
    mean_batch_size: float
    mean_latency_s: float
    p95_latency_s: float
    queue_depth: int
    batch_histogram: Dict[int, int]
    p50_latency_s: float = 0.0
    latency_window: int = 0
    predicted_latency_s: float = 0.0
    drift_ratio: float = 0.0
    #: Batches whose Executable.run raised; their waiters got the
    #: exception and the worker kept serving.
    failures: int = 0
    #: Requests skipped because the caller cancelled (timed out) while
    #: they were still queued.
    cancelled: int = 0
    #: False after a fatal (BaseException) crash killed the worker;
    #: the session is closed and rejects new submissions immediately.
    worker_alive: bool = True
    last_error: Optional[str] = None


class InferenceSession:
    """Dynamic micro-batching request queue over one Executable.

    Parameters
    ----------
    executable:
        The compiled model.  A micro-batch is whatever is queued when
        the worker comes free, capped at its ``max_batch``; no request
        is held back to wait for company.
    warm:
        Run one throwaway batch at construction so first-request
        latency does not pay first-touch/einsum-path costs.
    stats_window:
        Per-request latencies retained for quantiles (bounded ring).
    """

    def __init__(
        self,
        executable: Executable,
        warm: bool = True,
        stats_window: int = 4096,
    ) -> None:
        self.executable = executable
        self.max_batch = executable.max_batch
        shape = executable.input_shape
        # Staging buffer: submitted samples are copied (and dtype-cast)
        # into it, so the hot path never stacks a fresh batch array and
        # Executable.run always receives its own dtype (zero casts).
        self._staging = np.zeros(
            (self.max_batch,) + shape, dtype=executable.dtype
        )
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        self._requests = 0
        self._batches = 0
        self._batch_histogram: Dict[int, int] = {}
        self._failures = 0
        self._cancelled = 0
        self._worker_died = False
        self._last_error: Optional[str] = None
        self._latencies = _Ring(stats_window)
        self._drift = _Ring(DRIFT_WINDOW)
        self._lock = threading.Lock()
        # Pins one executable per batch: the chaos harness swaps a
        # fault wrapper in or out only at a batch boundary.
        self._swap_lock = threading.Lock()
        if warm:
            self.executable.run(self._staging[:1])
        self._worker = threading.Thread(
            target=self._serve_loop,
            name=f"serve-{executable.model_name}",
            daemon=True,
        )
        self._worker.start()

    # -- client side --------------------------------------------------
    def submit(self, x: np.ndarray) -> _Pending:
        """Enqueue one ``(C, H, W)`` sample; returns a waitable handle."""
        if self._closed:
            raise RuntimeError("session is closed")
        x = np.asarray(x)
        if x.shape != self.executable.input_shape:
            raise ValueError(
                f"expected one sample of shape "
                f"{self.executable.input_shape}, got {x.shape}; sessions "
                f"micro-batch single samples (use Executable.run for "
                f"whole batches)"
            )
        pending = _Pending()
        self._queue.put((pending, x))
        if self._closed:
            # Raced a close() or a fatal worker crash: the worker may
            # never pop this item, so reject everything queued now —
            # the waiter gets an immediate error instead of a hang.
            self._drain_rejecting()
        return pending

    def infer(self, x: np.ndarray, timeout: Optional[float] = None) -> np.ndarray:
        """Synchronous single-sample inference."""
        return self.submit(x).result(timeout)

    def infer_many(
        self, xs: Sequence[np.ndarray], timeout: Optional[float] = None
    ) -> List[np.ndarray]:
        """Submit many samples at once and wait for all of them.

        ``timeout`` is a *shared deadline* across the whole call, not a
        per-handle allowance — asking for 1 s means the call raises
        :class:`TimeoutError` after ~1 s even with N handles still
        pending (per-handle timeouts would let it block for N seconds).
        When the call raises, every handle still queued is cancelled, so
        the worker skips work nobody waits for.
        """
        handles = [self.submit(x) for x in xs]
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        results: List[np.ndarray] = []
        try:
            for handle in handles:
                remaining = (
                    None if deadline is None
                    else max(0.0, deadline - time.perf_counter())
                )
                results.append(handle.result(remaining))
        finally:
            for handle in handles[len(results):]:
                handle.cancel()
        return results

    # -- worker side --------------------------------------------------
    def _reap_cancelled(
        self, items: List[Tuple[_Pending, np.ndarray]]
    ) -> List[Tuple[_Pending, np.ndarray]]:
        """Drop cancelled pendings (finishing them) from a batch slice.

        A waiter whose ``result(timeout)`` expired — or a fleet hedger
        that already got its answer elsewhere — cancelled its handle;
        computing it would burn micro-batch capacity on abandoned work.
        """
        live: List[Tuple[_Pending, np.ndarray]] = []
        reaped = 0
        for item in items:
            if item[0].cancelled:
                item[0]._finish(
                    None,
                    RequestCancelled("request cancelled before its "
                                     "micro-batch ran"),
                )
                reaped += 1
            else:
                live.append(item)
        if reaped:
            with self._lock:
                self._cancelled += reaped
        return live

    def _collect_batch(self, first) -> List[Tuple[_Pending, np.ndarray]]:
        """``first`` plus live queued requests, up to ``max_batch``."""
        batch = self._reap_cancelled([first])
        while len(batch) < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is _SENTINEL:
                # Keep the shutdown signal for the outer loop.
                self._queue.put(_SENTINEL)
                break
            batch.extend(self._reap_cancelled([item]))
        return batch

    def _drain_rejecting(self) -> None:
        """Fail any request still queued (or racing close()) so no
        waiter blocks forever on a session that shut down."""
        error = RuntimeError("session closed before request ran")
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not _SENTINEL:
                item[0]._finish(None, error)

    def _serve_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SENTINEL:
                self._drain_rejecting()
                break
            batch = self._collect_batch(item)
            if not batch:
                continue
            b = len(batch)
            # The swap lock pins one executable for the whole batch; a
            # fault injection waits for the batch boundary.
            with self._swap_lock:
                executable = self.executable
                try:
                    t0 = time.perf_counter()
                    staged = self._staging[:b]
                    for i, (_, x) in enumerate(batch):
                        staged[i] = x  # copy + dtype cast, no alloc
                    y = executable.run(staged)
                    for i, (pending, _) in enumerate(batch):
                        pending._finish(y[i].copy())
                    run_wall = time.perf_counter() - t0
                except Exception as exc:
                    # Surface the failure to every waiter in the batch
                    # and keep the worker alive: one poisoned batch
                    # (or chaos-injected fault) must not leave every
                    # later submitter hanging until timeout.
                    for pending, _ in batch:
                        if not pending.done():
                            pending._finish(None, exc)
                    with self._lock:
                        self._failures += 1
                        self._last_error = repr(exc)
                    continue
                except BaseException as exc:
                    # Fatal (simulated worker death, interpreter
                    # shutdown): fail the batch, reject everything
                    # still queued, and mark the session dead so new
                    # submissions raise immediately instead of
                    # enqueueing onto a worker that no longer exists.
                    for pending, _ in batch:
                        if not pending.done():
                            pending._finish(None, exc)
                    with self._lock:
                        self._failures += 1
                        self._worker_died = True
                        self._last_error = repr(exc)
                    self._closed = True
                    self._drain_rejecting()
                    return
            now_stats = [
                p.latency for p, _ in batch if p.latency is not None
            ]
            predicted = executable.predicted_latency()
            ratio = (run_wall / b) / predicted if predicted > 0 else 0.0
            with self._lock:
                self._requests += b
                self._batches += 1
                self._batch_histogram[b] = (
                    self._batch_histogram.get(b, 0) + 1
                )
                self._latencies.extend(now_stats)
                if ratio > 0:
                    self._drift.append(math.log(ratio))

    # -- lifecycle / stats --------------------------------------------
    def queue_depth(self) -> int:
        """Requests waiting in the queue (cheap; no locking of stats)."""
        return self._queue.qsize()

    def is_alive(self) -> bool:
        """True while the session accepts work and its worker runs."""
        return not self._closed and self._worker.is_alive()

    def stats(self) -> SessionStats:
        # Copy the bounded window under the lock; sort/quantile the
        # copy off-lock so heavy traffic never stalls behind a reader.
        with self._lock:
            lat = self._latencies.snapshot()
            drift_logs = self._drift.snapshot()
            requests = self._requests
            batches = self._batches
            histogram = dict(self._batch_histogram)
            failures = self._failures
            cancelled = self._cancelled
            worker_died = self._worker_died
            last_error = self._last_error
        mean_lat = float(lat.mean()) if lat.size else 0.0
        drift = (
            float(math.exp(drift_logs.mean())) if drift_logs.size else 0.0
        )
        return SessionStats(
            requests=requests,
            batches=batches,
            mean_batch_size=requests / batches if batches else 0.0,
            mean_latency_s=mean_lat,
            p95_latency_s=latency_quantile(lat, 0.95),
            queue_depth=self._queue.qsize(),
            batch_histogram=histogram,
            p50_latency_s=latency_quantile(lat, 0.50),
            latency_window=int(lat.size),
            predicted_latency_s=self.executable.predicted_latency(),
            drift_ratio=drift,
            failures=failures,
            cancelled=cancelled,
            worker_alive=not worker_died and self._worker.is_alive(),
            last_error=last_error,
        )

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the worker after the queue drains."""
        # The serve loop also sets ``_closed`` (fatal-error path) while
        # holding ``_swap_lock``; the locked check-and-set makes
        # concurrent close() calls enqueue exactly one sentinel.
        with self._swap_lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_SENTINEL)
        self._worker.join(timeout)
        # A submit() that raced close() may have enqueued after the
        # sentinel; reject it rather than leave its waiter hanging.
        self._drain_rejecting()

    def __enter__(self) -> "InferenceSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SessionRegistry:
    """Named inference sessions, one per deployed (model, device,
    backend) combination."""

    def __init__(self) -> None:
        self._sessions: Dict[str, InferenceSession] = {}
        self._lock = threading.Lock()
        # Serializes create(): deployment is cold-path, and holding one
        # lock across check+build+add means concurrent deploys of the
        # same key reuse instead of racing (and never leak a session).
        self._create_lock = threading.Lock()

    @staticmethod
    def session_key(
        model_name: str, device: DeviceSpec, backend: str
    ) -> str:
        return f"{model_name}@{device.name}:{backend}"

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._sessions)

    def get(self, name: str) -> InferenceSession:
        with self._lock:
            try:
                return self._sessions[name]
            except KeyError:
                raise KeyError(
                    f"no session {name!r}; active: {sorted(self._sessions)}"
                ) from None

    def add(self, name: str, session: InferenceSession) -> InferenceSession:
        with self._lock:
            if name in self._sessions:
                raise ValueError(f"session {name!r} already exists")
            self._sessions[name] = session
        return session

    def create(
        self,
        model_name: str,
        device: DeviceSpec,
        *,
        backend: str = "auto",
        image_hw: Tuple[int, int] = (32, 32),
        in_channels: int = 3,
        num_classes: int = 10,
        seed: int = 0,
        budget: float = 0.5,
        rank_step: int = 4,
        max_batch: int = 8,
        decompose: bool = True,
        formats: object = ("tucker",),
        name: Optional[str] = None,
        stats_window: int = 4096,
        threads: Optional[int] = None,
    ) -> InferenceSession:
        """Deploy a model preset end to end and register the session.

        Builds the preset (:func:`repro.models.build_model`), optionally
        runs hardware-aware decomposition against the target device,
        warms the backend caches, plans, compiles, and wraps the
        executable in a work-conserving :class:`InferenceSession`.
        ``formats`` widens the decomposition search beyond Tucker
        (``"all"`` or an explicit list), deploying a mixed-format plan
        when CP/TT wins sites.  Reuses an existing session under the
        same key.  ``threads`` is the parallel-engine lane count for the
        compiled executable (``None`` = ``REPRO_NUM_THREADS`` /
        ``min(cores, 8)``; micro-batches then shard through the one
        process-wide worker pool).
        """
        from repro.codesign.pipeline import decompose_for_device
        from repro.models.introspection import trace_layer_sites
        from repro.models.registry import build_model

        key = name or self.session_key(model_name, device, backend)
        with self._create_lock:
            with self._lock:
                if key in self._sessions:
                    return self._sessions[key]

            model = build_model(
                model_name, num_classes=num_classes, seed=seed
            )
            if decompose:
                decompose_for_device(
                    model, device, image_hw, in_channels=in_channels,
                    budget=budget, rank_step=rank_step, formats=formats,
                )
            model.eval()
            # One traced forward feeds warm-up, planning, and compile.
            sites = trace_layer_sites(
                model, image_hw, in_channels=in_channels
            )
            warm_model_backends(
                model, device, image_hw, in_channels=in_channels,
                backends=(backend,), sites=sites,
            )
            plan = plan_model(
                model, device, image_hw, in_channels=in_channels,
                core_backend=backend, model_name=model_name, sites=sites,
            )
            executable = compile_plan(
                plan, model, device, image_hw=image_hw,
                in_channels=in_channels, max_batch=max_batch, sites=sites,
                threads=threads,
            )
            session = InferenceSession(
                executable, warm=True, stats_window=stats_window,
            )
            session.name = key
            return self.add(key, session)

    def close_all(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()


#: Process-wide default registry (the CLI and examples deploy here).
DEFAULT_REGISTRY = SessionRegistry()


def get_session(name: str) -> InferenceSession:
    """Look a session up in the default registry."""
    return DEFAULT_REGISTRY.get(name)


def create_session(*args, **kwargs) -> InferenceSession:
    """Create (or reuse) a session in the default registry; see
    :meth:`SessionRegistry.create`."""
    return DEFAULT_REGISTRY.create(*args, **kwargs)
