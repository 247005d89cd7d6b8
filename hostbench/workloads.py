"""The three benchmark workloads: deploy, reference outputs, traffic.

Each workload deploys through the library's public entry points, then
drives traffic drawn from the seed before any clock starts:

- ``exec-resnet18``: one caller, closed loop, ``Executable.run`` at
  batch 1 (the paper's setting, Tucker cores on ``tdc-oracle``).
- ``serve-vgg16``: one ``InferenceSession`` on one lane; an ``open``
  phase of Poisson arrivals, then a ``saturated`` phase with 16 requests
  kept outstanding (the phase the end-to-end metrics come from).
- ``fleet-vgg16``: a two-replica fleet behind admission and the
  ``least-loaded`` router; two closed-loop clients with priorities
  cycling high/normal/low.

Every returned output is compared with ``Module.forward`` of the
decomposed model that produced it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

import repro.codesign.pipeline as pipeline
import repro.inference.executable as executable_mod
import repro.models.registry as registry
from repro.gpusim.device import get_device
from repro.serving.admission import CorruptedOutput, DeadlineExceeded, Overloaded
from repro.serving.fleet import ReplicaSet, deploy_fleet
from repro.serving.session import RequestCancelled, SessionRegistry

IMAGE_HW = (32, 32)
POOL = 32                 # distinct seeded input images
TOLERANCE = 1e-9          # the executor's float64 equivalence tolerance
# serve-vgg16 open-phase arrivals per second: about half the rate its
# one-lane session serves saturated (about 300 images/s).
OPEN_RATE = 150.0
# Share of each chunk given to the open phase.  The open phase is
# printed, not gated; the saturated phase, which the end-to-end metrics
# come from, gets the rest: given only a fifth of each chunk (about 5 s
# a run, on two lanes), its p90 spread 44-56% between runs of the same
# code.
OPEN_SHARE = 0.2
SATURATED_OUTSTANDING = 16
# serve-vgg16 runs its session on one lane.  On the library default, two
# lanes on a 2-vCPU host, its batch shards served 65% more images/s while
# another process kept one vCPU busy than while it did not (163 -> 269),
# so its figures followed the neighbours' load; one lane moved by 2%.
SERVE_THREADS = 1
# A saturated phase keeps sending past its time until it has sent this
# many requests, so its p90 has about 90 samples beyond it over the
# three chunks of a run, however slow the session is.
SATURATED_MIN = 300
# A closed-loop chunk keeps running past its time until it has this
# many requests, so p90 always has at least 11 samples beyond it over
# the three chunks of a run, however slow the program is.
MIN_REQUESTS = 40
FLEET_CLIENTS = 2
PRIORITIES = ("high", "normal", "low")
RESULT_TIMEOUT_S = 30.0

#: Typed failures a request may end in; each counts as failed.
REQUEST_ERRORS = (Overloaded, DeadlineExceeded, CorruptedOutput,
                  RequestCancelled, TimeoutError, RuntimeError, ValueError)


@dataclass
class Sample:
    """One completed (or failed) request."""

    pool_index: int
    start: float            # due time (open) or call time (closed loop)
    end: float
    output: Optional[np.ndarray] = None
    error: Optional[str] = None
    sent: float = 0.0       # open loop: when the request was submitted
    pending: object = None  # session handle (rid lookup in the trace)


@dataclass
class Phase:
    name: str
    start: float = 0.0
    end: float = 0.0
    samples: List[Sample] = field(default_factory=list)
    backlog_end: int = 0    # open phase: requests unfinished at its end
    window_completed: int = 0  # saturated phase: done inside the window


@dataclass
class Inputs:
    """Everything drawn from the seed, before any clock starts."""

    pool: np.ndarray                 # (POOL, 3, H, W) float64
    order: List[np.ndarray]          # per client: pool index stream
    gaps: np.ndarray                 # open-phase inter-arrival seconds


def make_inputs(seed: int, seconds: float, clients: int = 1) -> Inputs:
    rng = np.random.default_rng(seed)
    pool = rng.standard_normal((POOL, 3) + IMAGE_HW)
    # Closed loops never finish more than a few hundred requests per
    # second; the streams are drawn long enough for any run length.
    n = int(400 * seconds) + 64
    order = [rng.integers(0, POOL, size=n) for _ in range(clients)]
    gaps = rng.exponential(1.0 / OPEN_RATE, size=int(2 * OPEN_RATE * seconds) + 64)
    return Inputs(pool=pool, order=order, gaps=gaps)


def _capture_decompositions(models: List):
    """Record the models ``decompose_for_device`` returns, at the name
    the serving entry points look it up under, so their outputs can be
    checked against ``Module.forward``; restores the original."""
    original = pipeline.decompose_for_device

    def capture(*a, **kw):
        result = original(*a, **kw)
        models.append(result[0])
        return result

    pipeline.decompose_for_device = capture
    return lambda: setattr(pipeline, "decompose_for_device", original)


def _max_error(y: np.ndarray, ref: np.ndarray) -> float:
    y = np.asarray(y).reshape(ref.shape)
    return float(np.max(np.abs(y - ref)))


class Workload:
    name = ""
    model_name = ""
    clients = 1

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.device = get_device("A100")
        self.decomposed: List = []   # reference models, primary first
        self.refs: List[np.ndarray] = []
        # Where each client's pool-index stream (and the Poisson gaps)
        # continue, so successive traffic chunks send fresh requests.
        self.cursor = [0] * self.clients
        self.gap_cursor = 0

    # -- subclass API -------------------------------------------------
    def deploy(self) -> None:
        raise NotImplementedError

    def executables(self) -> list:
        raise NotImplementedError

    def drive(self, seconds: float, tracer=None) -> List[Phase]:
        """One chunk of traffic; returns its phases."""
        raise NotImplementedError

    def next_index(self, client: int = 0) -> int:
        order = self.inputs.order[client]
        k = int(order[self.cursor[client] % len(order)])
        self.cursor[client] += 1
        return k

    def close(self) -> None:
        pass

    # -- shared -------------------------------------------------------
    def compute_references(self) -> None:
        """``Module.forward`` of every decomposed model on the pool, one
        image at a time: the layers keep their last activations, so a
        whole-pool forward would weigh on the run's peak RSS."""
        pool = self.inputs.pool
        self.refs = [np.concatenate([m.forward(pool[i:i + 1])
                                     for i in range(len(pool))])
                     for m in self.decomposed]

    def check(self, sample: Sample) -> Optional[float]:
        """Smallest deviation from a reference model's output (the
        fleet may serve a degraded request from its fallback plan)."""
        if sample.output is None:
            return None
        return min(_max_error(sample.output, ref[sample.pool_index])
                   for ref in self.refs)


class ExecResnet18(Workload):
    name = "exec-resnet18"
    model_name = "resnet18_slim"

    def deploy(self) -> None:
        model = registry.build_model(self.model_name, num_classes=10, seed=0)
        pipeline.decompose_for_device(
            model, self.device, IMAGE_HW, budget=0.5, rank_step=4,
            formats=("tucker",),
        )
        model.eval()
        self.exe = executable_mod.compile_model(
            model, self.device, image_hw=IMAGE_HW, core_backend="auto",
            max_batch=1,
        )
        self.exe.run(self.inputs.pool[:1])
        self.decomposed = [model]

    def executables(self) -> list:
        return [self.exe]

    def drive(self, seconds: float, tracer=None) -> List[Phase]:
        pool, run = self.inputs.pool, self.exe.run
        phase = Phase("closed")
        samples = phase.samples
        phase.start = time.perf_counter()
        stop = phase.start + seconds
        while time.perf_counter() < stop or len(samples) < MIN_REQUESTS:
            k = self.next_index()
            x = pool[k : k + 1]
            if tracer is not None:
                tracer.new_request()
            t0 = time.perf_counter()
            try:
                y = run(x)
                t1 = time.perf_counter()
                samples.append(Sample(k, t0, t1, output=y.copy()))
            except REQUEST_ERRORS as exc:
                samples.append(Sample(k, t0, time.perf_counter(),
                                      error=repr(exc)))
            if tracer is not None:
                tracer.end_request()
        phase.end = time.perf_counter()
        return [phase]


class ServeVgg16(Workload):
    name = "serve-vgg16"
    model_name = "vgg16_slim"

    def deploy(self) -> None:
        restore = _capture_decompositions(self.decomposed)
        try:
            self.registry = SessionRegistry()
            self.session = self.registry.create(
                self.model_name, self.device, formats="all",
                threads=SERVE_THREADS,
            )
        finally:
            restore()

    def executables(self) -> list:
        return [self.session.executable]

    def sessions(self) -> list:
        return [self.session]

    def _finish(self, sample: Sample, pending) -> None:
        try:
            sample.output = pending.result(RESULT_TIMEOUT_S)
            sample.end = pending.done_at
        except REQUEST_ERRORS as exc:
            sample.error = repr(exc)
            sample.end = time.perf_counter()

    def drive(self, seconds: float, tracer=None) -> List[Phase]:
        return [self._open(seconds * OPEN_SHARE),
                self._saturated(seconds * (1.0 - OPEN_SHARE))]

    def _open(self, seconds: float) -> Phase:
        """Poisson arrivals, each timed from its due time."""
        pool, submit = self.inputs.pool, self.session.submit
        phase = Phase("open")
        t0 = time.perf_counter()
        due = t0 + np.cumsum(self.inputs.gaps[self.gap_cursor:])
        n = int(np.searchsorted(due, t0 + seconds))
        self.gap_cursor += n
        inflight = []
        for i in range(n):
            wait = due[i] - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            k = self.next_index()
            sent = time.perf_counter()
            sample = Sample(k, float(due[i]), 0.0, sent=sent)
            try:
                sample.pending = submit(pool[k])
                inflight.append(sample)
            except REQUEST_ERRORS as exc:
                sample.error, sample.end = repr(exc), sent
            phase.samples.append(sample)
        end = t0 + seconds
        wait = end - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        phase.start, phase.end = t0, end
        phase.backlog_end = sum(1 for s in inflight if not s.pending.done())
        for sample in inflight:
            self._finish(sample, sample.pending)
        return phase

    def _saturated(self, seconds: float) -> Phase:
        """Keep ``SATURATED_OUTSTANDING`` requests in the session."""
        pool, submit = self.inputs.pool, self.session.submit
        phase = Phase("saturated")
        inflight: List[Sample] = []
        t0 = time.perf_counter()
        stop = t0 + seconds

        def send():
            k = self.next_index()
            now = time.perf_counter()
            sample = Sample(k, now, 0.0, sent=now)
            try:
                sample.pending = submit(pool[k])
                inflight.append(sample)
            except REQUEST_ERRORS as exc:
                sample.error, sample.end = repr(exc), now
            phase.samples.append(sample)

        for _ in range(SATURATED_OUTSTANDING):
            send()
        closed = None          # when sending stopped
        while inflight:
            sample = inflight.pop(0)
            self._finish(sample, sample.pending)
            if closed is not None:
                continue
            if (time.perf_counter() < stop
                    or len(phase.samples) < SATURATED_MIN):
                send()
            else:
                closed = time.perf_counter()
        closed = closed or time.perf_counter()
        # The window closes at the last completion before sending stopped.
        inside = [s.end for s in phase.samples
                  if s.error is None and s.end <= closed]
        phase.start, phase.end = t0, max(inside, default=closed)
        phase.window_completed = len(inside)
        return phase

    def close(self) -> None:
        self.registry.close_all()


class FleetVgg16(Workload):
    name = "fleet-vgg16"
    model_name = "vgg16_slim"
    clients = FLEET_CLIENTS

    def deploy(self) -> None:
        restore = _capture_decompositions(self.decomposed)
        try:
            self.fleet: ReplicaSet = deploy_fleet(
                self.model_name, [self.device], replicas_per_device=2,
                formats="all", rank_step=4, image_hw=IMAGE_HW,
            )
        finally:
            restore()

    def sessions(self) -> list:
        sessions = [r.session for r in self.fleet.replicas]
        if self.fleet.fallback is not None:
            sessions.append(self.fleet.fallback)
        return sessions

    def executables(self) -> list:
        return [s.executable for s in self.sessions()]

    def drive(self, seconds: float, tracer=None) -> List[Phase]:
        pool, fleet = self.inputs.pool, self.fleet
        phase = Phase("closed")
        per_client: List[List[Sample]] = [[] for _ in range(self.clients)]
        start = threading.Barrier(self.clients + 1)
        stop_at = [0.0]

        def client(c: int) -> None:
            samples = per_client[c]
            start.wait()
            stop = stop_at[0]
            least = -(-MIN_REQUESTS // self.clients)
            while time.perf_counter() < stop or len(samples) < least:
                i = self.cursor[c]
                k = self.next_index(c)
                priority = PRIORITIES[(i * self.clients + c) % len(PRIORITIES)]
                t0 = time.perf_counter()
                try:
                    y = fleet.infer(pool[k], priority=priority)
                    samples.append(Sample(k, t0, time.perf_counter(), output=y))
                except REQUEST_ERRORS as exc:
                    samples.append(Sample(k, t0, time.perf_counter(),
                                          error=repr(exc)))

        threads = [threading.Thread(target=client, args=(c,), name=f"client-{c}")
                   for c in range(self.clients)]
        for t in threads:
            t.start()
        phase.start = time.perf_counter()
        stop_at[0] = phase.start + seconds
        start.wait()
        for t in threads:
            t.join()
        phase.end = time.perf_counter()
        for samples in per_client:
            phase.samples.extend(samples)
        return [phase]

    def close(self) -> None:
        self.fleet.close()


WORKLOADS: Dict[str, type] = {
    w.name: w for w in (ExecResnet18, ServeVgg16, FleetVgg16)
}
