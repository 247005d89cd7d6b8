"""Serving runtime: micro-batched inference sessions over Executables.

An :class:`InferenceSession` owns one compiled
:class:`~repro.inference.Executable` and a single worker thread.
Callers submit single samples (``(C, H, W)``); the worker drains the
request queue into dynamic micro-batches — up to the executable's
``max_batch``, waiting at most ``batch_window_s`` after the first
request — stages them into a preallocated batch buffer, and runs one
forward per batch.  Steady-state serving therefore allocates no new
activation buffers per request: the staging buffer and the
executable's arena are reused for every batch, and the staging buffer
is allocated in the arena dtype so ``Executable.run`` never casts
(``Executable.hot_casts`` stays zero).

Statistics are bounded: per-request latencies land in a fixed-size
ring (default ~4096 samples), so a session serving heavy traffic holds
constant memory, and :meth:`InferenceSession.stats` copies the window
under the lock but sorts/quantiles *off*-lock — the worker never
stalls behind a stats reader.

The session also tracks measured-vs-predicted **drift**: each batch
records the ratio of per-sample wall time to the executable's
predicted latency over a sliding window.  With an
:class:`AutoReplanPolicy`, sustained drift triggers the registry's
recalibration loop; :meth:`SessionRegistry.recalibrate` measures the
live kernels (:mod:`repro.calibration`), re-plans against the
resulting :class:`~repro.calibration.CalibratedDevice`, re-compiles,
and **hot-swaps** the executable behind the session's swap lock —
queued and in-flight requests are all answered, none dropped.

:class:`SessionRegistry` keeps named sessions per (model, device,
backend) and builds new ones through the full pipeline: build model →
hardware-aware decomposition (:func:`repro.codesign.decompose_for_device`)
→ backend warm-up (:func:`repro.planning.warm_model_backends`, filling
the PlanCache subsystem) → ``plan_model`` → ``compile_plan`` → warm run.
"""

from __future__ import annotations

import math
import queue
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.inference.executable import Executable, compile_plan
from repro.inference.plan import plan_model
from repro.models.introspection import LayerSite
from repro.nn.module import Module
from repro.planning.warmup import warm_model_backends

_SENTINEL = object()


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

    def clear(self) -> None:
        self._count = 0
        self._idx = 0

    def __len__(self) -> int:
        return self._count


@dataclass(frozen=True)
class AutoReplanPolicy:
    """When should a session recalibrate and re-plan itself?

    Once the drift window holds ``window`` batch observations, the
    session compares the geometric-mean measured/predicted ratio to
    1.0; if it deviates by more than ``threshold`` (relative, e.g. 0.5
    = 50% off) — and at least ``cooldown_s`` passed since the last
    swap — it fires the registry's recalibration callback.  After a
    recalibrated re-plan the prediction is corrected, the ratio
    re-centers on 1.0, and the policy goes quiet until real drift
    reappears.
    """

    threshold: float = 0.5
    window: int = 32
    cooldown_s: float = 5.0

    def __post_init__(self) -> None:
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")

    def exceeded(self, drift_ratio: float) -> bool:
        if drift_ratio <= 0:
            return False
        return abs(math.log(drift_ratio)) > math.log1p(self.threshold)


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
    drift window (0.0 until the first batch); ``replans`` counts
    executable hot-swaps.
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
    replans: int = 0
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
        The compiled model; its ``max_batch`` caps the micro-batch.
    batch_window_s:
        How long the worker waits after the first queued request for
        more arrivals before running a partial batch.  0 disables
        batching (every request runs alone).
    warm:
        Run one throwaway batch at construction so first-request
        latency does not pay first-touch/einsum-path costs.
    stats_window:
        Per-request latencies retained for quantiles (bounded ring).
    drift_window:
        Per-batch measured/predicted ratios retained for drift.
    auto_replan:
        Opt-in :class:`AutoReplanPolicy`; needs ``on_replan`` (wired
        by :meth:`SessionRegistry.create`) to actually act.
    on_replan:
        Callback fired (from the worker thread — it must not block)
        when the policy trips; receives this session.
    """

    def __init__(
        self,
        executable: Executable,
        batch_window_s: float = 0.002,
        warm: bool = True,
        stats_window: int = 4096,
        drift_window: int = 64,
        auto_replan: Optional[AutoReplanPolicy] = None,
        on_replan: Optional[Callable[["InferenceSession"], None]] = None,
    ) -> None:
        self.executable = executable
        self.batch_window_s = float(batch_window_s)
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
        self._batched_requests = 0
        self._batch_histogram: Dict[int, int] = {}
        self._failures = 0
        self._cancelled = 0
        self._worker_died = False
        self._last_error: Optional[str] = None
        self._latencies = _Ring(stats_window)
        # The drift ring must hold at least the policy's window of
        # observations, or `filled < policy.window` would gate forever
        # and auto-replan would silently never fire.
        if auto_replan is not None:
            drift_window = max(drift_window, auto_replan.window)
        self._drift = _Ring(drift_window)
        self._replans = 0
        self._lock = threading.Lock()
        # Serializes executable use between the worker and maintenance
        # (calibration measurements, hot swaps).  RLock: recalibration
        # holds it across measure + swap.
        self._swap_lock = threading.RLock()
        self.auto_replan = auto_replan
        self.on_replan = on_replan
        self._replan_pending = False
        self._last_swap = time.perf_counter()
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
        """
        handles = [self.submit(x) for x in xs]
        deadline = (
            None if timeout is None else time.perf_counter() + timeout
        )
        results: List[np.ndarray] = []
        for handle in handles:
            remaining = (
                None if deadline is None
                else max(0.0, deadline - time.perf_counter())
            )
            results.append(handle.result(remaining))
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
        batch = self._reap_cancelled([first])
        deadline = time.perf_counter() + self.batch_window_s
        while len(batch) < self.max_batch:
            remaining = deadline - time.perf_counter()
            try:
                if remaining <= 0:
                    item = self._queue.get_nowait()
                else:
                    item = self._queue.get(timeout=remaining)
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
            # Re-check right before running: a cancel may have landed
            # between collection and the batch window closing.
            batch = self._reap_cancelled(batch)
            if not batch:
                continue
            b = len(batch)
            # The swap lock pins one executable (and its staging
            # buffer) for the whole batch; a concurrent hot swap waits
            # for the batch boundary, so requests are never dropped.
            # The batch was collected against the *previous*
            # executable's max_batch — a swap to a smaller one may
            # have happened since, so run in chunks of the pinned
            # executable's limit.
            with self._swap_lock:
                executable = self.executable
                limit = executable.max_batch
                try:
                    t0 = time.perf_counter()
                    for start in range(0, b, limit):
                        chunk = batch[start : start + limit]
                        staged = self._staging[: len(chunk)]
                        for i, (_, x) in enumerate(chunk):
                            staged[i] = x  # copy + dtype cast, no alloc
                        y = executable.run(staged)
                        for i, (pending, _) in enumerate(chunk):
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
                self._batched_requests += b
                self._batch_histogram[b] = (
                    self._batch_histogram.get(b, 0) + 1
                )
                self._latencies.extend(now_stats)
                if ratio > 0:
                    self._drift.append(math.log(ratio))
            self._maybe_request_replan()

    # -- drift / replanning -------------------------------------------
    def drift_ratio(self) -> float:
        """Geometric-mean measured/predicted ratio over the window."""
        with self._lock:
            logs = self._drift.snapshot()
        if logs.size == 0:
            return 0.0
        return float(math.exp(logs.mean()))

    def _maybe_request_replan(self) -> None:
        policy = self.auto_replan
        if policy is None or self.on_replan is None or self._replan_pending:
            return
        with self._lock:
            filled = len(self._drift)
        if filled < policy.window:
            return
        if time.perf_counter() - self._last_swap < policy.cooldown_s:
            return
        if not policy.exceeded(self.drift_ratio()):
            return
        # Runs on the worker thread: the callback must hand off (the
        # registry spawns a recalibration thread) rather than block —
        # and a raising callback must not unwind the serve loop, or
        # every future request would hang on an undrained queue.
        # ``_replan_pending`` is also cleared by ``swap_executable`` on
        # the recalibration thread, under ``_swap_lock``; take the same
        # lock here so the worker's set never races the swap's clear.
        with self._swap_lock:
            self._replan_pending = True
        try:
            self.on_replan(self)
        except Exception as exc:
            with self._swap_lock:
                self._replan_pending = False
            print(
                f"on_replan callback for session "
                f"{getattr(self, 'name', self.executable.model_name)!r} "
                f"failed: {exc}",
                file=sys.stderr,
            )

    @contextmanager
    def paused(self) -> Iterator[Executable]:
        """Hold the worker at its next batch boundary.

        Yields the current executable for exclusive use (calibration
        measurements).  Queued requests wait — none are dropped — and
        serving resumes when the block exits.
        """
        with self._swap_lock:
            yield self.executable

    def swap_executable(self, executable: Executable) -> Executable:
        """Hot-swap the compiled model behind the session.

        Blocks until the in-flight batch (if any) completes, then
        installs the new executable and a matching staging buffer.
        Requests already queued are served by the new executable; the
        drift window resets so the policy judges the new plan afresh.
        Returns the replaced executable.
        """
        if tuple(executable.input_shape) != tuple(self.executable.input_shape):
            raise ValueError(
                f"cannot swap executable with input shape "
                f"{executable.input_shape} into a session serving "
                f"{self.executable.input_shape}"
            )
        with self._swap_lock:
            old = self.executable
            if (
                executable.max_batch != old.max_batch
                or executable.dtype != old.dtype
            ):
                self._staging = np.zeros(
                    (executable.max_batch,) + tuple(executable.input_shape),
                    dtype=executable.dtype,
                )
            self.executable = executable
            self.max_batch = executable.max_batch
            with self._lock:
                self._drift.clear()
                self._replans += 1
            self._last_swap = time.perf_counter()
            self._replan_pending = False
        return old

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
            batched_requests = self._batched_requests
            histogram = dict(self._batch_histogram)
            replans = self._replans
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
            mean_batch_size=(
                batched_requests / batches if batches else 0.0
            ),
            mean_latency_s=mean_lat,
            p95_latency_s=latency_quantile(lat, 0.95),
            queue_depth=self._queue.qsize(),
            batch_histogram=histogram,
            p50_latency_s=latency_quantile(lat, 0.50),
            latency_window=int(lat.size),
            predicted_latency_s=self.executable.predicted_latency(),
            drift_ratio=drift,
            replans=replans,
            failures=failures,
            cancelled=cancelled,
            worker_alive=not worker_died and self._worker.is_alive(),
            last_error=last_error,
        )

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the worker after the queue drains."""
        # The serve loop also sets ``_closed`` (fatal-error path) while
        # holding ``_swap_lock``; the reentrant check-and-set makes
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


@dataclass
class _Deployment:
    """Everything :meth:`SessionRegistry.recalibrate` needs to re-plan
    and re-compile a deployed session."""

    model: Module
    device: DeviceSpec
    backend: str
    image_hw: Tuple[int, int]
    in_channels: int
    max_batch: int
    model_name: str
    sites: List[LayerSite]
    threads: Optional[int] = None


class SessionRegistry:
    """Named inference sessions, one per deployed (model, device,
    backend) combination."""

    def __init__(self) -> None:
        self._sessions: Dict[str, InferenceSession] = {}
        self._deployments: Dict[str, _Deployment] = {}
        self._lock = threading.Lock()
        # In-flight background recalibration jobs.  close_all() joins
        # them (and blocks new spawns) so a job never races a closed
        # session or a cleared registry.
        self._recal_threads: List[threading.Thread] = []
        self._closing = False
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
        batch_window_s: float = 0.002,
        decompose: bool = True,
        formats: object = ("tucker",),
        name: Optional[str] = None,
        stats_window: int = 4096,
        auto_replan: Optional[AutoReplanPolicy] = None,
        threads: Optional[int] = None,
    ) -> InferenceSession:
        """Deploy a model preset end to end and register the session.

        Builds the preset (:func:`repro.models.build_model`), optionally
        runs hardware-aware decomposition against the target device,
        warms the backend caches, plans, compiles, and wraps the
        executable in a micro-batching session.  ``formats`` widens the
        decomposition search beyond Tucker (``"all"`` or an explicit
        list), deploying a mixed-format plan when CP/TT wins sites.
        Reuses an existing session under the same key.  ``auto_replan``
        opts the session into drift-triggered recalibration (see
        :class:`AutoReplanPolicy` and :meth:`recalibrate`).
        ``threads`` is the parallel-engine lane count for the compiled
        executable (``None`` = ``REPRO_NUM_THREADS`` / ``min(cores,
        8)``; micro-batches then shard through the one process-wide
        worker pool); it sticks across :meth:`recalibrate` swaps.
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
                executable, batch_window_s=batch_window_s, warm=True,
                stats_window=stats_window, auto_replan=auto_replan,
                on_replan=self._spawn_recalibration if auto_replan else None,
            )
            session.name = key
            with self._lock:
                self._deployments[key] = _Deployment(
                    model=model, device=device, backend=backend,
                    image_hw=tuple(image_hw), in_channels=in_channels,
                    max_batch=max_batch, model_name=model_name,
                    sites=list(sites), threads=threads,
                )
            return self.add(key, session)

    # -- the predicted↔measured loop ----------------------------------
    def recalibrate(
        self, name: str, *, warmup: int = 1, repeats: int = 3
    ):
        """Measure a live session, re-plan calibrated, hot-swap.

        1. Pause the session at a batch boundary and run a
           :func:`repro.calibration.run_calibration` pass over its
           executable (per-site kernel timings + end-to-end wall).
        2. Store the fitted correction factors in the persistent
           ``calibration`` cache (overwriting stale fits — drift means
           the old measurements no longer describe the hardware).
        3. Re-plan and re-compile against the resulting
           :class:`~repro.calibration.CalibratedDevice` — ``auto``
           dispatch now ranks backends by *corrected* latency, so the
           plan can genuinely change.
        4. Hot-swap the new executable in; queued requests are served
           across the swap with zero drops.

        Returns the :class:`~repro.calibration.CalibrationRun`.
        """
        from repro.calibration import (
            CalibratedDevice,
            run_calibration,
            store_calibration,
        )

        session = self.get(name)
        with self._lock:
            if self._closing:
                raise RuntimeError(
                    "registry is closing; recalibration skipped"
                )
            deployment = self._deployments.get(name)
        if deployment is None:
            raise KeyError(
                f"session {name!r} has no deployment record (it was added "
                f"directly, not created by this registry); recalibrate "
                f"needs the source model to re-plan"
            )
        with session.paused() as executable:
            run = run_calibration(
                executable, warmup=warmup, repeats=repeats
            )
        store_calibration(run, merge=False)
        calibrated = CalibratedDevice.from_cache(deployment.device)
        plan = plan_model(
            deployment.model, calibrated, deployment.image_hw,
            in_channels=deployment.in_channels,
            core_backend=deployment.backend,
            model_name=deployment.model_name, sites=deployment.sites,
        )
        executable = compile_plan(
            plan, deployment.model, calibrated,
            image_hw=deployment.image_hw,
            in_channels=deployment.in_channels,
            max_batch=deployment.max_batch,
            dtype=session.executable.dtype, sites=deployment.sites,
            threads=deployment.threads,
        )
        session.swap_executable(executable)
        return run

    def _spawn_recalibration(self, session: InferenceSession) -> None:
        """Worker-thread callback: recalibrate without blocking serving.

        The drift check runs on the session's worker, which must keep
        draining the queue during the (slow) re-plan/re-compile, so
        the actual recalibration happens on a daemon thread; the
        session's ``_replan_pending`` latch stops repeat triggers
        until the swap (or a failure) resolves.
        """
        name = getattr(session, "name", None)
        if name is None:
            session._replan_pending = False
            return

        def job() -> None:
            try:
                self.recalibrate(name)
            except Exception as exc:  # pragma: no cover - diagnostics
                # Advance the cooldown clock before releasing the
                # latch: a persistently failing recalibration then
                # retries at most once per cooldown instead of
                # stalling serving with a measurement pass per batch.
                session._last_swap = time.perf_counter()
                session._replan_pending = False
                print(
                    f"auto-replan of session {name!r} failed: {exc}",
                    file=sys.stderr,
                )
            finally:
                with self._lock:
                    if thread in self._recal_threads:
                        self._recal_threads.remove(thread)

        thread = threading.Thread(
            target=job, name=f"recalibrate-{name}", daemon=True
        )
        with self._lock:
            if self._closing:
                # The registry is shutting down; a recalibration
                # started now would race the closed session.
                session._replan_pending = False
                return
            self._recal_threads.append(thread)
        thread.start()

    def close_all(self) -> None:
        # Block new recalibration spawns, then join the in-flight jobs
        # *before* tearing sessions down — a background job otherwise
        # races the close (measuring a closed session, swapping into
        # it, or KeyErroring on the cleared registry).
        with self._lock:
            self._closing = True
            jobs = list(self._recal_threads)
        for job in jobs:
            job.join(timeout=60.0)
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
            self._deployments.clear()
            self._recal_threads.clear()
            self._closing = False
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
