"""Per-layer metrics of the traced run.

:func:`install` wraps the deploy and serving entry points before the
deploy; :func:`instrument` wraps the objects the deploy produced (bound
kernels, the shared worker pool, the fleet's router and admission).
:func:`per_layer_metrics` turns the recorded spans into the per-layer
table: traffic-phase times are self times per completed image, deploy
times are seconds.
"""

from __future__ import annotations

import bisect
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

import repro.codesign.pipeline as pipeline
import repro.codesign.rank_selection as rank_selection
import repro.compression.baselines as baselines
import repro.inference.executable as executable_mod
import repro.inference.plan as plan_mod
import repro.models.registry as registry
import repro.planning.warmup as warmup
from repro.backends.registry import DEPTHWISE_BASELINE, backend_names
from repro.kernels.base import ConvShape
from repro.planning.cache import all_caches
from repro.runtime.pool import get_pool
from repro.serving.fleet import ReplicaSet
from repro.serving.session import InferenceSession

from percentiles import percentile

SITE_KINDS = {
    "CompiledConv2d": "dense",
    "CompiledTuckerConv2d": "tucker",
    "CompiledCPConv2d": "cp",
    "CompiledTTConv2d": "tt",
    "CompiledFusedSite": "fused",
}
#: Every registered core backend plus the depthwise baseline.
BACKENDS = tuple(backend_names()) + (DEPTHWISE_BASELINE,)

#: Deploy-stage metric -> the wrapped public function it times.
DEPLOY = {
    "models.build_s": (registry, "build_model"),
    "codesign.select_ranks_s": (rank_selection, "select_ranks"),
    "tensor.factorize_s": (baselines, "decompose_model_formats"),
    "planning.warm_s": (warmup, "warm_model_backends"),
    "inference.plan_s": (plan_mod, "plan_model"),
    "inference.compile_s": (executable_mod, "compile_plan"),
}
RUN = "inference.Executable.run"
INFER = "serving.fleet.infer"


def span_name(module, attr: str) -> str:
    return f"{module.__name__.removeprefix('repro.')}.{attr}"


def install(tracer) -> None:
    """Wrap the public calls the deploy and serving paths make."""
    for module, attr in list(DEPLOY.values()) + [
            (pipeline, "decompose_for_device")]:
        tracer.patch_function(module, attr, span_name(module, attr))
    original_run = executable_mod.Executable.run

    def run(exe, x):
        return tracer.call(RUN, original_run, (exe, x), {}, args=id(exe))

    tracer.replace(executable_mod.Executable, "run", run)
    for cls_name, kind in SITE_KINDS.items():
        tracer.patch_site_forward(getattr(executable_mod, cls_name), kind)
    tracer.patch_submit(InferenceSession)
    tracer.patch(ReplicaSet, "infer", INFER, own_request=True)


_WORK: Dict[tuple, Tuple[int, int]] = {}


def conv_work(args) -> Tuple[int, int]:
    """Op count and bytes moved by one ``run_into(x, w, out, ...)``
    call, from its :class:`ConvShape` (the arrays' own itemsize)."""
    x, w, out = args[0], args[1], args[2]
    key = (x.shape, w.shape, out.shape, x.itemsize)
    work = _WORK.get(key)
    if work is None:
        if w.ndim == 4:     # dense / Tucker core: (N, C, R, S)
            shape = ConvShape(c=w.shape[1], n=w.shape[0], h=out.shape[1],
                              w=out.shape[2], r=w.shape[2], s=w.shape[3])
        else:               # depthwise: (Q, R, S), one channel per filter
            shape = ConvShape(c=1, n=w.shape[0], h=out.shape[1],
                              w=out.shape[2], r=w.shape[1], s=w.shape[2])
        work = _WORK[key] = (shape.flops(),
                             (x.size + w.size + out.size) * x.itemsize)
    return work


def instrument(tracer, workload) -> None:
    """Wrap the objects the deploy produced."""
    for exe in workload.executables():
        planned = {k.layer: k.backend for k in exe.plan.kernels}
        for site in exe.sites():
            backend = getattr(site, "backend", None) or planned.get(
                site.site_name, "dense")
            if getattr(site, "kernel", None) is not None:
                tracer.patch_kernel(site.kernel, backend, work=conv_work)
            if getattr(site, "executor", None) is not None:
                tracer.patch_kernel(site.executor, "fused", method="run")
    tracer.patch_pool(get_pool())
    fleet = getattr(workload, "fleet", None)
    if fleet is not None:
        tracer.patch(fleet.router, "rank", "serving.router.rank")
        tracer.patch(fleet.admission, "admit", "serving.admission.admit")


def cache_hit_ratio() -> float:
    stats = [c.stats() for c in all_caches()]
    lookups = sum(s.lookups for s in stats)
    return sum(s.hits for s in stats) / lookups if lookups else 0.0


def _union_length(intervals: List[Tuple[float, float]], lo: float,
                  hi: float) -> float:
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def assign_batches(tracer) -> Dict[int, object]:
    """Map each session request to the ``Executable.run`` span of the
    batch that served it: the last run of the session's executable that
    ended before the request was finished."""
    runs = defaultdict(list)
    for s in tracer.spans:
        if s.name == RUN:
            runs[s.args].append(s)
    for spans in runs.values():
        spans.sort(key=lambda s: s.end)
    ends = {k: [s.end for s in v] for k, v in runs.items()}
    served = {}
    for req in tracer.requests:
        done = req.pending.done_at
        key = id(req.session.executable)
        if done is None or key not in runs:
            continue
        i = bisect.bisect_right(ends[key], done) - 1
        if i >= 0:
            served[req.rid] = runs[key][i]
    return served


def per_layer_metrics(tracer, workload, phases, windows, deploy_end: float,
                      pool_tasks: int, hit_ratio: float,
                      forward_ms: Tuple[float, float]):
    """Returns ``(metrics, table, percentiles)``; ``metrics`` maps every
    per-layer name to ``(value, unit)``.  ``phases`` are the traced
    traffic phases and ``windows`` the ``(start, end)`` of each traced
    chunk; spans are only recorded while the wrappers are installed."""
    t0 = windows[0][0]
    wall = sum(b - a for a, b in windows)
    images = sum(1 for p in phases for s in p.samples if s.error is None)
    per_img = 1e3 / max(images, 1)
    m: Dict[str, Tuple[float, str]] = {}
    pct: Dict[str, tuple] = {}

    deploy = [s for s in tracer.spans if s.end <= deploy_end]
    traffic = [s for s in tracer.spans if s.start >= t0]
    for metric, (module, attr) in DEPLOY.items():
        name = span_name(module, attr)
        m[metric] = (sum(s.self_s for s in deploy if s.name == name), "s")
    m["planning.cache_hit_ratio"] = (hit_ratio, "ratio")
    exes = workload.executables()
    m["inference.arena_mb"] = (
        sum(e.arena_report()["arena_bytes"] for e in exes) / 1e6, "MB")
    m["runtime.parallel_sites"] = (
        float(exes[0].parallel_report()["parallel_sites"]), "count")

    runs = [s for s in traffic if s.name == RUN]
    serving = {s.args for s in runs}
    m["inference.run_ms"] = (sum(s.end - s.start for s in runs) * per_img,
                             "ms/img")
    m["inference.busy_share"] = (
        sum(s.end - s.start for s in runs) / (wall * max(len(serving), 1)),
        "ratio")
    m["nn.aux_ms"] = (sum(s.self_s for s in runs) * per_img, "ms/img")
    for kind in SITE_KINDS.values():
        spans = [s for s in traffic if s.name == f"site.{kind}"]
        m[f"inference.site.{kind}_ms"] = (
            sum(s.self_s for s in spans) * per_img, "ms/img")
        m[f"inference.site.{kind}.calls"] = (len(spans) / max(images, 1),
                                             "calls/img")
    for backend in BACKENDS:
        spans = [s for s in traffic if s.name == f"kernel.{backend}"]
        m[f"kernels.{backend}_ms"] = (sum(s.self_s for s in spans) * per_img,
                                      "ms/img")
        m[f"kernels.{backend}.calls"] = (len(spans) / max(images, 1),
                                         "calls/img")
        if backend == "fused":
            continue  # the whole-chain executor has no single ConvShape
        m[f"kernels.{backend}.gflop"] = (
            sum(s.args[0] for s in spans) / 1e9 / max(images, 1), "GFLOP/img")
        m[f"kernels.{backend}.mb"] = (
            sum(s.args[1] for s in spans) / 1e6 / max(images, 1), "MB/img")
    m["runtime.run_tasks_ms"] = (
        sum(s.self_s for s in traffic if s.name == "runtime.run_tasks")
        * per_img, "ms/img")
    m["runtime.tasks"] = (pool_tasks / max(images, 1), "tasks/img")
    m["nn.forward_ms"] = (forward_ms[0], "ms/img")
    m["nn.dense_forward_ms"] = (forward_ms[1], "ms/img")

    # -- serving.session ---------------------------------------------
    sessions = getattr(workload, "sessions", lambda: [])()
    served = assign_batches(tracer)
    reqs = [r for r in tracer.requests
            if r.pending.done_at is not None and r.pending.enqueued_at >= t0]
    waits = [(served[r.rid].start - r.pending.enqueued_at) * 1e3
             for r in reqs if r.rid in served]
    for q in (50, 99):
        key = f"serving.session.queue_wait_p{q}_ms"
        if waits:
            pct[key] = percentile(waits, q)
        m[key] = (pct[key][0] if waits else 0.0, "ms")
    stats = [s.stats() for s in sessions]
    batches = sum(s.batches for s in stats)
    m["serving.session.mean_batch"] = (
        sum(s.requests for s in stats) / batches if batches else 0.0,
        "img/batch")
    busy = []
    for session in sessions:
        spans = [(r.pending.enqueued_at, r.pending.done_at) for r in reqs
                 if r.session is session]
        if spans:
            busy.append(sum(_union_length(spans, a, b)
                            for a, b in windows) / wall)
    m["serving.session.busy_share"] = (float(np.mean(busy)) if busy else 0.0,
                                       "ratio")
    m["serving.session.failures"] = (float(sum(s.failures for s in stats)),
                                     "count")
    m["serving.session.cancelled"] = (float(sum(s.cancelled for s in stats)),
                                      "count")

    # -- serving.fleet / router / admission --------------------------
    fleet = getattr(workload, "fleet", None)
    overhead, per_replica = [], defaultdict(int)
    if fleet is not None:
        replicas = {id(r.session): r.id for r in fleet.replicas}
        last_submit = {}
        for r in reqs:
            last_submit[r.rid] = r
            if id(r.session) in replicas:
                per_replica[replicas[id(r.session)]] += 1
        for s in traffic:
            if s.name == INFER and s.rid in last_submit:
                overhead.append(
                    (s.end - s.start - last_submit[s.rid].pending.latency)
                    * 1e3)
        adm = fleet.admission.stats()
        shed = sum(adm.shed.values())
        degraded = sum(adm.degraded.values())
        retries = fleet.stats().retries
    else:
        shed = degraded = retries = 0
    if overhead:
        pct["serving.fleet.overhead_p50_ms"] = percentile(overhead, 50)
    m["serving.fleet.overhead_p50_ms"] = (
        pct["serving.fleet.overhead_p50_ms"][0] if overhead else 0.0, "ms")
    total = sum(per_replica.values())
    m["serving.router.top_replica_share"] = (
        max(per_replica.values()) / total if total else 0.0, "ratio")
    m["serving.admission.shed"] = (float(shed), "count")
    m["serving.admission.degraded"] = (float(degraded), "count")
    m["serving.fleet.retries"] = (float(retries), "count")

    # -- load generator ----------------------------------------------
    open_phases = [p for p in phases if p.name == "open"]
    if open_phases:
        late = [(s.sent - s.start) * 1e3 for p in open_phases
                for s in p.samples]
        pct["loadgen.late_p90_ms"] = percentile(late, 90)
        m["loadgen.late_p90_ms"] = (pct["loadgen.late_p90_ms"][0], "ms")
        m["loadgen.backlog_end"] = (
            float(max(p.backlog_end for p in open_phases)), "count")
    else:
        m["loadgen.late_p90_ms"] = (0.0, "ms")
        m["loadgen.backlog_end"] = (0.0, "count")

    # -- coverage: request time no span accounts for -----------------
    m["trace.unaccounted_ms"] = (
        unaccounted_ms(traffic, phases, reqs, served), "ms/req")
    table = self_time_table(traffic, images, wall)
    return m, table, pct


def unaccounted_ms(traffic, phases, reqs, served) -> float:
    """Mean per completed request of its end-to-end latency minus the
    part of it that spans cover.  A request that goes through a session
    is covered by its submit, its queue wait and the batch that served
    it, plus its lateness (open loop) or the fleet's admit and rank
    (``ReplicaSet.infer``; its last submit is the one served).  The
    closed loop on ``Executable.run`` times one wrapped call per
    request."""
    samples = [s for p in phases for s in p.samples if s.error is None]
    if not samples:
        return 0.0
    submits = {s.rid: s for s in traffic
               if s.name == "serving.session.submit"}

    def session_cover(req):
        batch = served[req.rid]
        cover = [(req.pending.enqueued_at, batch.start),
                 (batch.start, batch.end)]
        sub = submits.get(req.rid)
        if sub is not None:
            cover.append((sub.start, sub.end))
        return cover

    gaps = []
    if any(p.name == "open" for p in phases):
        by_pending = {id(r.pending): r for r in reqs}
        for smp in samples:
            req = by_pending.get(id(smp.pending))
            if req is None or req.rid not in served:
                continue
            cover = session_cover(req) + [(smp.start, smp.sent)]
            gaps.append(smp.end - smp.start
                        - _union_length(cover, smp.start, smp.end))
    elif any(s.name == INFER for s in traffic):
        last = {r.rid: r for r in reqs}
        children = defaultdict(list)
        for s in traffic:
            if s.parent is not None:
                children[s.parent].append((s.start, s.end))
        for s in traffic:
            if s.name != INFER or s.rid not in last or s.rid not in served:
                continue
            cover = session_cover(last[s.rid]) + children[s.id]
            gaps.append(s.end - s.start
                        - _union_length(cover, s.start, s.end))
    else:
        covered = sum(s.end - s.start for s in traffic
                      if s.name == RUN and s.parent is None)
        latency = sum(s.end - s.start for s in samples)
        return (latency - covered) / len(samples) * 1e3
    return float(np.mean(gaps)) * 1e3 if gaps else 0.0


def self_time_table(traffic, images: int, wall: float):
    """Rows of (span name, calls, self ms per image, share of the total
    self time) for the traffic phase."""
    agg = defaultdict(lambda: [0, 0.0])
    for s in traffic:
        row = agg[s.name]
        row[0] += 1
        row[1] += s.self_s
    total = sum(v[1] for v in agg.values()) or 1.0
    return sorted(
        ((name, calls, self_s * 1e3 / max(images, 1), self_s / total)
         for name, (calls, self_s) in agg.items()),
        key=lambda r: -r[2],
    )
