"""The compile half of the compile/execute split.

An :class:`~repro.inference.plan.ExecutionPlan` records *decisions*
(which backend, which tiling, what latency) but cannot run.
:func:`compile_plan` turns a plan plus a trainable model into an
:class:`Executable` — the repro-side analogue of the paper's generated
inference program after ``nvcc``:

- every conv site lowers to an ordered list of batch-wide *stages*, the
  plain ``Sequential(1x1, core, 1x1)`` form of a factored conv:

  ======  ==========================
  dense   ``[conv]`` (a stride-1, unpadded 1x1 is one ``pw``)
  Tucker  ``[pw, conv, pw]``
  CP      ``[pw, dw, pw]``
  TT      ``[pw, dw, gsum, pw]``
  ======  ==========================

  with the bias folded into the last stage.  ``pw`` is a stacked
  ``matmul``; ``conv`` copies the strided windows of its padded input
  (a view built at compile time) into the executable's one stage
  scratch and runs one stacked ``matmul``; ``dw`` is the ``R*S`` tap
  loop over the whole batch.  ``conv`` and ``dw`` compute only the
  strided output positions.
- the plan's backend — ``fused`` included — drives the simulated
  latency and the generated CUDA source; it does not pick a host
  loop, since every backend lowers to the same stages;
- the model's core/factor weights are exported into the executable
  (contiguous, in the execution dtype), so later mutation of the
  source model cannot leak into a compiled artifact;
- all activation buffers and the one stage scratch (sized to the
  largest stage, shared by every site) are preallocated in a
  :class:`BufferArena`, so the hot path performs zero per-request
  ``np.zeros``/``np.empty``/``np.pad`` allocation.

``Executable.run`` is single-threaded by design (one arena, one
in-flight request); :mod:`repro.serving` serializes concurrent callers
through a micro-batching queue on top.  A site the perf model marks
parallel runs its stage list on batch shards: every shard owns a
disjoint sample slice of the same buffers (scratch included), and the
stacked ``matmul`` runs one GEMM per sample, so shards are
bit-identical to a serial run.
"""

from __future__ import annotations

import copy
import time
from dataclasses import replace as dc_replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.gpusim.device import DeviceSpec
from repro.inference.plan import ExecutionPlan, PlannedKernel, plan_model
from repro.kernels.base import ConvShape, execution_dtype
from repro.models.introspection import (
    LayerSite,
    find_module,
    replace_module,
    trace_layer_sites,
)
from repro.nn.module import Module
from repro.perfmodel.parallel import should_parallelize
from repro.runtime.engine import plan_batch_shards
from repro.runtime.pool import get_pool, resolve_threads

#: Plan kernel kinds that bind to a model conv site.
_CONV_KINDS = ("conv", "pointwise", "core", "dwcore")

#: Arena name of the stage scratch every site shares.
STAGE_SCRATCH = "stage.scratch"


class BufferArena:
    """Named pool of preallocated ndarrays (activations + scratch).

    All buffers are zero-initialized once at compile time; hot-path
    code only ever writes interiors (padding borders stay zero), so a
    steady-state request allocates nothing.

    The default dtype is float32 — the device execution dtype
    (``kernels.base.FLOAT_BYTES``); a float64 arena is only warranted
    when the model's weights are float64, which :func:`compile_plan`
    decides per model.
    """

    def __init__(self, dtype: np.dtype = np.dtype(np.float32)) -> None:
        self.dtype = np.dtype(dtype)
        self._buffers: Dict[str, np.ndarray] = {}

    def allocate(self, name: str, shape: Tuple[int, ...]) -> np.ndarray:
        """Allocate (zeroed) and register one buffer; names are unique."""
        if name in self._buffers:
            raise ValueError(f"arena buffer {name!r} already allocated")
        buf = np.zeros(shape, dtype=self.dtype)
        self._buffers[name] = buf
        return buf

    def adopt(self, name: str, array: np.ndarray) -> np.ndarray:
        """Register an externally allocated buffer."""
        if name in self._buffers:
            raise ValueError(f"arena buffer {name!r} already allocated")
        self._buffers[name] = array
        return array

    def get(self, name: str) -> np.ndarray:
        return self._buffers[name]

    def names(self) -> Tuple[str, ...]:
        return tuple(self._buffers)

    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())


# ---------------------------------------------------------------------------
# Stages: one batch-wide host op each.  ``run(x, lo, hi)`` computes
# samples ``[lo, hi)``; ``x`` is the site input, read only by a site's
# first stage (``src is None``), every other stage reads the arena
# buffer its predecessor wrote.
# ---------------------------------------------------------------------------

def _windows(a: np.ndarray, k: int, stride: int, oh: int, ow: int):
    """``(B, C, k, k, OH, OW)`` view of the strided conv windows of a
    padded NCHW array (the layout of an ``(N, C, k, k)`` weight)."""
    win = sliding_window_view(a, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride][:, :, :oh, :ow]
    return win.transpose(0, 1, 4, 5, 2, 3)


class PointwiseStage:
    """1x1 projection: ``(N, C) @ (b, C, H*W)``, one GEMM per sample."""

    def __init__(self, weight, src, out, bias=None) -> None:
        self.weight = weight                     # (N, C)
        self.src = None if src is None else src.reshape(
            src.shape[0], src.shape[1], -1
        )
        self.out = out.reshape(out.shape[0], out.shape[1], -1)
        self.bias = None if bias is None else bias[:, None]

    def run(self, x, lo, hi) -> None:
        if self.src is None:
            src = x[lo:hi].reshape(hi - lo, x.shape[1], -1)
        else:
            src = self.src[lo:hi]
        out = self.out[lo:hi]
        np.matmul(self.weight, src, out=out)
        if self.bias is not None:
            out += self.bias


class _WindowedStage:
    """Shared input handling of the ``conv`` and ``dw`` stages.

    A padded layer stages its input into the interior of a zero-border
    arena buffer (``<site>.xpad``, the only per-request copy besides
    the stage's own); an unpadded one reads its source directly.
    ``self.base`` is the padded input the windows are taken from, or
    ``None`` when that is the site input itself (known only per call).
    """

    def __init__(self, src, in_shape, out, stride, padding, arena, name):
        m, c, h, w = in_shape
        self.src = src
        self.out = out
        self.stride = stride
        self.interior = None
        self.base = src
        if padding:
            p = padding
            self.base = arena.allocate(
                f"{name}.xpad", (m, c, h + 2 * p, w + 2 * p)
            )
            self.interior = self.base[:, :, p:p + h, p:p + w]

    def _stage_input(self, x, lo, hi):
        """Stage samples ``[lo, hi)``; returns the padded input."""
        src = x if self.src is None else self.src
        if self.interior is None:
            return src
        self.interior[lo:hi] = src[lo:hi]
        return self.base


class ConvStage(_WindowedStage):
    """Dense ``RxS`` conv: one copy of the strided windows into the
    stage scratch (im2col), then one stacked ``matmul``."""

    def __init__(self, weight, src, in_shape, out, stride, padding,
                 arena, name, bias=None) -> None:
        super().__init__(src, in_shape, out, stride, padding, arena, name)
        n, c, k, _ = weight.shape
        self.k = k
        m, _, oh, ow = out.shape
        self.weight = weight.reshape(n, -1)      # (N, C*k*k)
        self.out3 = out.reshape(m, n, oh * ow)
        self.bias = None if bias is None else bias[:, None]
        self.win = None if self.base is None else _windows(
            self.base, k, stride, oh, ow
        )
        self.scratch_shape = (m, c, k, k, oh, ow)

    def bind(self, scratch: np.ndarray) -> None:
        m, c, k, _, oh, ow = self.scratch_shape
        self.cols = scratch[: m * c * k * k * oh * ow].reshape(
            self.scratch_shape
        )
        self.cols3 = self.cols.reshape(m, c * k * k, oh * ow)

    def run(self, x, lo, hi) -> None:
        base = self._stage_input(x, lo, hi)
        win = self.win
        if win is None:
            _, _, oh, ow = self.out.shape
            win = _windows(base, self.k, self.stride, oh, ow)
        np.copyto(self.cols[lo:hi], win[lo:hi])
        out = self.out3[lo:hi]
        np.matmul(self.weight, self.cols3[lo:hi], out=out)
        if self.bias is not None:
            out += self.bias


class DepthwiseStage(_WindowedStage):
    """Depthwise ``RxS`` conv: the tap loop, each tap one multiply
    over the whole batch's strided windows."""

    def __init__(self, weight, src, in_shape, out, stride, padding,
                 arena, name) -> None:
        super().__init__(src, in_shape, out, stride, padding, arena, name)
        _, k, _ = weight.shape
        m, q, oh, ow = out.shape
        rows, cols = (oh - 1) * stride + 1, (ow - 1) * stride + 1
        self.taps = [
            (
                self.base[:, :, r:r + rows:stride, s:s + cols:stride],
                weight[:, r, s, None, None],
            )
            for r in range(k) for s in range(k)
        ]
        self.scratch_shape = (m, q, oh, ow) if k > 1 else None

    def bind(self, scratch: np.ndarray) -> None:
        self.tmp = scratch[: self.out.size].reshape(self.out.shape)

    def run(self, x, lo, hi) -> None:
        self._stage_input(x, lo, hi)
        out = self.out[lo:hi]
        first, w = self.taps[0]
        np.multiply(first[lo:hi], w, out=out)
        if len(self.taps) > 1:
            tmp = self.tmp[lo:hi]
            for tap, w in self.taps[1:]:
                np.multiply(tap[lo:hi], w, out=tmp)
                out += tmp


class GroupSumStage:
    """TT group-sum: collapse the ``r1*r2`` depthwise channels to ``r1``."""

    def __init__(self, src, out, rank1: int, rank2: int) -> None:
        m, _, oh, ow = src.shape
        self.src = src.reshape(m, rank1, rank2, oh, ow)
        self.out = out

    def run(self, x, lo, hi) -> None:
        np.sum(self.src[lo:hi], axis=2, out=self.out[lo:hi])


# ---------------------------------------------------------------------------
# Lowering: one stage list per site format.
# ---------------------------------------------------------------------------

def _lower(site: LayerSite, arena: BufferArena, max_batch: int):
    """``(stages, core stage, core shape)`` for one conv site, writing
    into ``<site>.out`` (and the site's intermediate buffers).  The
    core stage is the ``conv``/``dw`` stage calibration times, the core
    shape its plan-time ``ConvShape``; both are ``None`` for a plain
    1x1 GEMM."""
    mod, name, fmt = site.module, site.name, site.format
    m, h, w = max_batch, site.height, site.width
    k, stride, p = mod.kernel_size, mod.stride, mod.padding
    oh, ow = mod.output_shape(h, w)
    dt = arena.dtype
    out = arena.allocate(f"{name}.out", (m, mod.out_channels, oh, ow))

    def buf(label: str, channels: int, hw=(oh, ow)):
        return arena.allocate(f"{name}.{label}", (m, channels) + hw)

    if fmt == "dense":
        weight = np.ascontiguousarray(mod.weight.data, dtype=dt)
        bias = (None if mod.bias is None
                else np.ascontiguousarray(mod.bias.data, dtype=dt))
        if k == 1 and stride == 1 and p == 0:
            return [PointwiseStage(weight[:, :, 0, 0], None, out, bias)], \
                None, None
        conv = ConvStage(weight, None, (m, mod.in_channels, h, w), out,
                         stride, p, arena, name, bias)
        shape = ConvShape(c=mod.in_channels, n=mod.out_channels,
                          h=oh, w=ow, r=k, s=k)
        return [conv], conv, shape
    weights = mod.export_weights(dtype=dt)
    mid = weights["w_in"].shape[0]
    z1 = buf("z1", mid, (h, w))
    pw1 = PointwiseStage(weights["w_in"], None, z1)
    if fmt == "tucker":
        z2 = buf("z2", mod.rank_out)
        core = ConvStage(weights["core"], z1, z1.shape, z2, stride, p,
                         arena, name)
        tail = [PointwiseStage(weights["w_out"], z2, out, weights["bias"])]
        shape = ConvShape(c=mid, n=mod.rank_out, h=oh, w=ow, r=k, s=k)
        return [pw1, core] + tail, core, shape
    z2 = buf("z2", mid)
    core = DepthwiseStage(weights["dw"], z1, z1.shape, z2, stride, p,
                          arena, name)
    if fmt == "tt":
        z3 = buf("z3", mod.rank1)
        tail = [GroupSumStage(z2, z3, mod.rank1, mod.rank2),
                PointwiseStage(weights["w_out"], z3, out, weights["bias"])]
    else:
        tail = [PointwiseStage(weights["w_out"], z2, out, weights["bias"])]
    shape = ConvShape(c=mid, n=mid, h=oh, w=ow, r=k, s=k)
    return [pw1, core] + tail, core, shape


class _CompiledSite(Module):
    """One compiled conv site: its stage list over arena buffers.

    ``forward`` runs the list on the whole batch, or — when
    :func:`compile_plan` marked the site parallel and the batch
    supports >= 2 shards of >= 2 samples — on batch shards across the
    worker pool.  The subclasses name the site's format (and the fused
    plan); they differ only in the stage list :func:`_lower` builds.
    """

    #: Set by compile_plan when the perf model picks parallel.
    threads = 1
    pool = None
    est_speedup = 1.0
    site_latency_s = 0.0

    def __init__(self, site: LayerSite, backend: Optional[str],
                 arena: BufferArena, max_batch: int) -> None:
        super().__init__()
        self.site_name = site.name
        self.format = site.format
        self.backend = backend
        self.max_batch = int(max_batch)
        self.input_shape = (site.module.in_channels, site.height, site.width)
        self.stages, self.core_stage, self.core_shape = _lower(
            site, arena, max_batch
        )
        self.out = arena.get(f"{site.name}.out")

    def forward(self, x: np.ndarray) -> np.ndarray:
        b = x.shape[0]
        if b > self.max_batch:
            raise ValueError(
                f"batch {b} exceeds the compiled max_batch "
                f"{self.max_batch} at site {self.site_name!r}; recompile "
                f"with a larger max_batch or split the request"
            )
        shards = plan_batch_shards(b, self.threads)
        if len(shards) > 1:
            self.pool.run_tasks(
                [partial(self._run, x, lo, hi) for lo, hi in shards]
            )
        else:
            self._run(x, 0, b)
        return self.out[:b]

    def _run(self, x: np.ndarray, lo: int, hi: int) -> None:
        for stage in self.stages:
            stage.run(x, lo, hi)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise RuntimeError(
            f"compiled site {self.site_name!r} is inference-only; "
            f"train on the source model and recompile"
        )


class CompiledConv2d(_CompiledSite):
    """A dense conv site: ``[conv]``."""


class CompiledTuckerConv2d(_CompiledSite):
    """A Tucker site (Eqs. 2-4): ``[pw, conv, pw]``."""


class CompiledCPConv2d(_CompiledSite):
    """A CP site: ``[pw, dw, pw]``."""


class CompiledTTConv2d(_CompiledSite):
    """A TT site: ``[pw, dw, gsum, pw]``."""


class CompiledFusedSite(_CompiledSite):
    """A factored site the plan assigns to the ``fused`` backend: it
    runs its format's stage list; the fused choice shapes only the
    simulated latency and the generated CUDA."""


_SITE_CLASSES = {
    "dense": CompiledConv2d,
    "tucker": CompiledTuckerConv2d,
    "cp": CompiledCPConv2d,
    "tt": CompiledTTConv2d,
}


class Executable:
    """A runnable, self-contained compilation of (plan, model, device).

    Produced by :func:`compile_plan`; executes real numeric forward
    passes through the compiled sites and the model's auxiliary modules
    (batch-norm in eval mode, activations, pooling, residual/concat
    topology).  Not thread-safe — one arena means one in-flight
    request; see :class:`repro.serving.InferenceSession` for
    concurrency.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        device: DeviceSpec,
        model: Module,
        arena: BufferArena,
        sites: Sequence[_CompiledSite],
        input_shape: Tuple[int, int, int],
        max_batch: int,
        threads: int = 1,
    ) -> None:
        self.plan = plan
        self.device = device
        self.model_name = plan.model_name
        self.arena = arena
        self.input_shape = tuple(input_shape)
        self.max_batch = int(max_batch)
        #: Worker lanes this executable was compiled for (1 = serial).
        self.threads = int(threads)
        self._model = model
        self._sites = list(sites)
        # The plan is immutable for this executable's lifetime; the
        # serving worker reads the prediction every batch, so sum once.
        self._predicted_latency = plan.total_latency()
        self.requests_served = 0
        # Inputs arriving in a different dtype than the arena force a
        # hot-path cast (a full copy).  The counter lets serving assert
        # the steady state performs none: the session's staging buffer
        # is allocated in the arena dtype, so every worker batch
        # arrives pre-converted.
        self.hot_casts = 0

    @property
    def dtype(self) -> np.dtype:
        return self.arena.dtype

    def sites(self) -> List[_CompiledSite]:
        return list(self._sites)

    def backend_counts(self) -> Dict[str, int]:
        """Core-conv backend wins recorded on the compiled plan."""
        return self.plan.backend_counts()

    def predicted_latency(self) -> float:
        """The plan's simulated per-request latency (seconds)."""
        return self._predicted_latency

    def arena_report(self) -> Dict[str, int]:
        """Arena footprint: every activation buffer plus the one
        shared stage scratch (parallel shards add no bytes)."""
        return {
            "arena_bytes": self.arena.nbytes,
            "stage_scratch_bytes": self.arena.get(STAGE_SCRATCH).nbytes,
            "workers": self.threads,
        }

    def parallel_report(self) -> Dict[str, object]:
        """Compile-time parallel decisions, per site.

        ``sites`` maps site name -> the perf model's verdict (estimated
        speedup and the planned site latency it weighed).  Serial sites
        (or a ``threads=1`` compile) simply do not appear.
        """
        sites = {
            s.site_name: {
                "est_speedup": s.est_speedup,
                "site_latency_s": s.site_latency_s,
            }
            for s in self._sites if s.pool is not None
        }
        return {
            "threads": self.threads,
            "parallel_sites": len(sites),
            "serial_sites": len(self._sites) - len(sites),
            "sites": sites,
        }

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute one request: ``(B, C, H, W)`` (or ``(C, H, W)``).

        Numerically equivalent to ``model.eval().forward(x)`` on the
        source model; the batch must not exceed ``max_batch``.
        """
        x = np.asarray(x)
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected input (B, {', '.join(map(str, self.input_shape))})"
                f" with B <= {self.max_batch}, got {x.shape}"
            )
        if x.shape[0] > self.max_batch:
            raise ValueError(
                f"batch {x.shape[0]} exceeds compiled max_batch "
                f"{self.max_batch}; recompile with a larger max_batch or "
                f"let an InferenceSession micro-batch the requests"
            )
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)  # repro: ignore[hot-path-alloc] -- cold-path dtype cast, counted via hot_casts; serving pre-converts in the staging buffer
            self.hot_casts += 1
        y = self._model.forward(x)
        self.requests_served += 1
        return y

    def measure(
        self, x: np.ndarray, repeats: int = 3, warmup: int = 1
    ) -> float:
        """Best-of-``repeats`` wall-clock seconds for one ``run(x)``."""
        for _ in range(warmup):
            self.run(x)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            self.run(x)
            best = min(best, time.perf_counter() - t0)
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Executable({self.model_name!r} on {self.device.name}, "
            f"{len(self._sites)} bound sites, max_batch={self.max_batch}, "
            f"arena {self.arena.nbytes / 1e6:.1f} MB)"
        )


def _kernel_site(k: PlannedKernel) -> str:
    """The conv site a planned kernel belongs to (aux kinds pass
    through unchanged)."""
    if k.kind in ("core", "dwcore"):
        return k.layer[: -len(".core")]
    if k.kind in _CONV_KINDS and (
        k.layer.endswith(".pw1") or k.layer.endswith(".pw2")
    ):
        return k.layer[:-4]
    return k.layer


def _index_plan(
    plan: ExecutionPlan, site_names: Sequence[str]
) -> Dict[str, PlannedKernel]:
    """Map each conv site to its core (or dense conv) plan kernel.

    Raises when a conv-kind kernel does not bind to any traced site —
    the symptom of pairing a plan with the wrong model (or a
    spec-built plan with a trainable model).
    """
    names = set(site_names)
    cores: Dict[str, PlannedKernel] = {}
    unbound: List[str] = []
    for k in plan.kernels:
        if k.kind not in _CONV_KINDS:
            continue  # aux kinds execute through the model's own modules
        site = _kernel_site(k)
        if site not in names:
            unbound.append(k.layer)
        elif site == k.layer or k.kind in ("core", "dwcore"):
            cores[site] = k
    if unbound:
        raise ValueError(
            f"plan kernels {sorted(unbound)[:8]} do not bind to any conv "
            f"site of the model ({sorted(names)[:8]}...); compile_plan "
            f"needs a plan built by plan_model for this exact model"
        )
    return cores


def _site_latencies(
    plan: ExecutionPlan, site_names: Sequence[str]
) -> Dict[str, float]:
    """Planned per-request latency per conv site: the sum of the
    site's kernels (pw1 + core + pw2, or the dense conv) — the ``L``
    the fork/join model weighs against lane overhead."""
    lat = {n: 0.0 for n in site_names}
    for k in plan.kernels:
        if k.kind in _CONV_KINDS and _kernel_site(k) in lat:
            lat[_kernel_site(k)] += k.latency
    return lat


def model_dtype(model: Module) -> np.dtype:
    """The execution dtype a model's own weights imply.

    ``compile_plan(dtype=None)`` compiles the arena in this dtype: a
    float32-trained model gets a float32 arena (half the bytes, no
    hot-path casts on float32 requests — every stage is
    dtype-preserving), while the float64 training stack keeps its
    float64 arena and exact-match semantics.
    """
    arrays = [p.data for p in model.parameters()]
    if not arrays:
        return np.dtype(np.float64)
    return execution_dtype(*arrays)


def compile_plan(
    plan: ExecutionPlan,
    model: Module,
    device: DeviceSpec,
    *,
    image_hw: Tuple[int, int] = (32, 32),
    in_channels: int = 3,
    max_batch: int = 1,
    dtype: Optional[np.dtype] = None,
    sites: Optional[Sequence[LayerSite]] = None,
    threads: Optional[int] = None,
) -> Executable:
    """Bind an execution plan to a trainable model: the compile step.

    Traces the model's conv sites, validates that the plan covers each
    of them, lowers every site to its stage list, exports the weights,
    and preallocates the buffer arena.  The model itself is deep-copied
    (and switched to eval mode) with each conv site replaced by its
    compiled form, so auxiliary topology — residual adds, dense
    concatenation, pooling, batch-norm — executes through the model's
    own modules.

    ``sites`` takes a pre-traced inventory (same ``image_hw`` and
    ``in_channels``) so planning and compilation can share one traced
    forward pass.

    ``dtype=None`` (default) compiles the arena in the *model's* dtype
    (:func:`model_dtype`) — the execution path is dtype-preserving, so
    defaulting to float64 regardless would double the arena and force
    a cast on every float32 request.

    ``threads`` enables batch shards: ``None`` resolves through
    ``REPRO_NUM_THREADS`` / ``min(cores, 8)``
    (:func:`repro.runtime.resolve_threads`), ``1`` compiles exactly
    the serial executable (same plan object, no pool).  With
    ``threads > 1`` the perf model decides *per site* whether sharding
    beats the fork/join overhead, and the decision is recorded on a
    copy of the plan (``PlannedKernel.parallel``).  Results are
    bit-identical to serial either way — the determinism suite and
    ``benchmarks/bench_parallel.py`` pin exact equality.
    """
    threads = resolve_threads(threads)
    if dtype is None:
        dtype = model_dtype(model)
    if sites is None:
        sites = trace_layer_sites(model, image_hw, in_channels=in_channels)
    else:
        sites = list(sites)
    if not sites:
        raise ValueError(
            f"model {type(model).__name__} has no conv sites reachable "
            f"from a ({in_channels}, {image_hw[0]}, {image_hw[1]}) input; "
            f"nothing to compile"
        )
    if max_batch < 1:
        raise ValueError(f"max_batch must be >= 1, got {max_batch}")
    cores = _index_plan(plan, [s.name for s in sites])
    missing = [
        f"{s.name}.core" if s.is_factored else s.name
        for s in sites if s.name not in cores
    ]
    if missing:
        raise ValueError(
            f"plan does not cover conv sites {missing[:8]}; was it built "
            f"by plan_model for this model (same decomposition state)?"
        )

    arena = BufferArena(dtype=dtype)
    compiled_model = copy.deepcopy(model).eval()
    compiled_sites: List[_CompiledSite] = []
    for site in sites:
        # Bind against the *copy*'s module so exported weights come
        # from the same tree the executable runs.
        copied = LayerSite(
            name=site.name,
            module=find_module(compiled_model, site.name),
            height=site.height,
            width=site.width,
        )
        backend = cores[site.name].backend
        cls = CompiledFusedSite if backend == "fused" \
            else _SITE_CLASSES[site.format]
        compiled = cls(copied, backend, arena, max_batch)
        replace_module(compiled_model, site.name, compiled)
        compiled_sites.append(compiled)

    # One scratch for every stage: sites run one after another, and
    # batch shards of one site write disjoint sample slices of it.
    stages = [
        st for s in compiled_sites for st in s.stages
        if getattr(st, "scratch_shape", None)
    ]
    scratch = arena.allocate(STAGE_SCRATCH, (max(
        [int(np.prod(st.scratch_shape)) for st in stages], default=0
    ),))
    for st in stages:
        st.bind(scratch)

    if threads > 1:
        site_lat = _site_latencies(plan, [s.name for s in sites])
        parallel_names = set()
        for compiled in compiled_sites:
            lat = site_lat[compiled.site_name]
            go, est = should_parallelize(lat, threads)
            if not go:
                continue
            # threads lanes = the caller + (threads - 1) workers.
            compiled.pool = get_pool(threads - 1)
            compiled.threads = threads
            compiled.est_speedup = est
            compiled.site_latency_s = lat
            parallel_names.add(compiled.site_name)
        if parallel_names:
            # Record the decision on a *copy*: the planner's plan (and
            # any cache holding it) stays untouched.
            plan = ExecutionPlan(
                model_name=plan.model_name,
                device_name=plan.device_name,
                variant=plan.variant,
                kernels=[
                    dc_replace(k, parallel=True)
                    if k.kind in _CONV_KINDS
                    and _kernel_site(k) in parallel_names
                    else k
                    for k in plan.kernels
                ],
            )

    return Executable(
        plan=plan,
        device=device,
        model=compiled_model,
        arena=arena,
        sites=compiled_sites,
        input_shape=(in_channels, image_hw[0], image_hw[1]),
        max_batch=max_batch,
        threads=threads,
    )


def compile_model(
    model: Module,
    device: DeviceSpec,
    *,
    image_hw: Tuple[int, int] = (32, 32),
    in_channels: int = 3,
    core_backend: str = "auto",
    max_batch: int = 1,
    dtype: Optional[np.dtype] = None,
    model_name: Optional[str] = None,
    threads: Optional[int] = None,
) -> Executable:
    """Plan + compile in one call (the common cold-path entry); the
    model is traced once and shared between the two phases."""
    sites = trace_layer_sites(model, image_hw, in_channels=in_channels)
    plan = plan_model(
        model, device, image_hw, in_channels=in_channels,
        core_backend=core_backend, model_name=model_name, sites=sites,
    )
    return compile_plan(
        plan, model, device, image_hw=image_hw, in_channels=in_channels,
        max_batch=max_batch, dtype=dtype, sites=sites, threads=threads,
    )
