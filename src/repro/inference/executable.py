"""The compile half of the compile/execute split.

An :class:`~repro.inference.plan.ExecutionPlan` records *decisions*
(which backend, which tiling, what latency) but cannot run.
:func:`compile_plan` lowers a plan plus a trainable model into an
:class:`Executable` — the repro-side analogue of the paper's generated
inference program after ``nvcc``: one flat list of batch-wide *stages*
over preallocated :class:`BufferArena` buffers, for the whole module
tree.

- every conv site lowers to its format's stage list, the plain
  ``Sequential(1x1, core, 1x1)`` form of a factored conv:

  ======  ==========================
  dense   ``[conv]`` (a stride-1, unpadded 1x1 is one ``pw``)
  Tucker  ``[pw, conv, pw]``
  CP      ``[pw, dw, pw]``
  TT      ``[pw, dw, pw]``
  ======  ==========================

  ``pw`` is a stacked ``matmul``.  ``conv`` copies one sample's
  windows into a scratch slot (im2col) and runs one ``matmul`` per
  sample.  ``dw`` copies the whole batch's windows into the stage
  scratch and runs one stacked ``(Q, 1, k²) @ (b, Q, k², P)`` matmul;
  TT's group-sum folds into it as ``(r1, 1, r2·k²) @ (b, r1, r2·k²,
  P)``.  A padded ``conv``/``dw`` reads a zero-border copy of its input
  (``<site>.xpad``).  At stride 1 over an arena buffer the windows are
  *pitched*: each im2col row is one contiguous run of the flattened
  ``Hp·Wp`` input plane, ``P = (OH-1)·Wp + OW`` columns with ``Wp -
  OW`` junk ones per output row, and the ``matmul`` writes ``(OH, Wp)``
  rows into the stage scratch, whose first ``OW`` columns one strided
  copy compacts into the output.  Otherwise (stride > 1, or the
  network input read by an unpadded first conv) the windows are a 2-D
  view and the ``matmul`` writes the ``OH·OW`` strided outputs
  directly.
- the rest of the network lowers by a closed set of rules keyed on
  module type (the ``models.blocks`` blocks, the zoo's model classes,
  and the ``nn.layers`` pools, ``Linear``, ``Flatten`` and
  ``Dropout``):

  - an eval ``BatchNorm2d`` that consumes a conv site's output folds
    into the site's last stage: the rows of its weight scale by
    ``γ/√(var+ε)`` and its bias becomes ``scale·bias + β − scale·mean``;
  - ``ReLU`` is an in-place epilogue on its producer's output;
  - a residual add runs in place into the main branch's buffer,
    followed by the block's ReLU;
  - a BatchNorm with no site to fold into (DenseNet's pre-activation
    BN + ReLU) becomes a per-channel ``max(x·scale + shift, 0)``
    prologue, written straight into its consumer's padded input when
    there is one;
  - max, average and global-average pooling are tap-loop stages into
    arena buffers; ``Flatten`` is a view, eval ``Dropout`` nothing, and
    ``Linear`` a matmul into an arena buffer;
  - every ``DenseLayer`` writes its channel slice of one block buffer.

  A module type with no rule raises at compile time, naming its
  dotted path.
- the plan's backend — ``fused`` included — drives the simulated
  latency and the generated CUDA source; it does not pick a host
  loop, since every backend lowers to the same stages;
- weights (with the BatchNorm statistics folded in) are copied into
  the executable in the execution dtype, and the executable keeps no
  reference to the model: later mutation of it — parameters or
  running statistics — cannot leak into a compiled artifact;
- every buffer is preallocated, so a warm ``Executable.run`` allocates
  nothing but the array it returns.  Plain activations share one
  block, the *slab*, by liveness: a buffer lives from the first step
  (an entry of ``Executable._steps``; a compiled site and all of its
  stages are one step) that touches it to the last, the output until
  ``run`` returns, and two buffers overlap in the slab only if their
  lifetimes do not.  :func:`compile_plan` lowers once over private
  buffers, reads each buffer's lifetime from the arrays its stages
  hold, moves the plain buffers into the slab by those lifetimes and
  re-points every view there.  A padded input (``.xpad``) keeps the
  border written once at compile time, so it stays private.  The one
  stage scratch, sized to the largest stage, is shared by every stage.

``Executable.run`` is single-threaded by design (one arena, one
in-flight request); :mod:`repro.serving` serializes concurrent callers
through a micro-batching queue on top.  A site the perf model marks
parallel runs its stage list on batch shards: every shard owns a
disjoint sample slice of the same buffers and its own ``conv`` scratch
slot, and every matmul runs per sample, so shards are bit-identical to
a serial run.  A site is one step, so every buffer of a parallel site
is live for the whole site and no shard writes bytes another of its
buffers uses.  Stages outside the sites run on the whole batch.
"""

from __future__ import annotations

import time
from bisect import bisect_right
from dataclasses import dataclass
from dataclasses import replace as dc_replace
from functools import partial
from math import prod
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from repro.gpusim.device import DeviceSpec
from repro.inference.plan import ExecutionPlan, PlannedKernel, plan_model
from repro.kernels.base import ConvShape, execution_dtype
from repro.models.blocks import (
    BasicBlock,
    Bottleneck,
    ConvBNReLU,
    DenseBlock,
    DenseLayer,
    Transition,
)
from repro.models.densenet import DenseNet
from repro.models.introspection import LayerSite, trace_layer_sites
from repro.models.resnet import ResNet
from repro.models.vgg import VGG
from repro.nn.conv import Conv2d
from repro.nn.factored_conv import FactoredConv2d
from repro.nn.functional import conv_out_size
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    ReLU,
)
from repro.nn.module import Identity, Module, Sequential
from repro.perfmodel.parallel import should_parallelize
from repro.runtime.engine import plan_batch_shards
from repro.runtime.pool import get_pool, resolve_threads

#: Plan kernel kinds that bind to a model conv site.
_CONV_KINDS = ("conv", "pointwise", "core", "dwcore")

#: Arena name of the stage scratch every stage shares.
STAGE_SCRATCH = "stage.scratch"


class BufferArena:
    """Named pool of preallocated ndarrays (activations + scratch).

    All buffers are zero-initialized once at compile time; hot-path
    code only ever writes interiors (padding borders keep their fill),
    so a steady-state request allocates nothing.

    Every buffer starts private.  :meth:`pack` then moves the plain
    activations into one block, the *slab*, at offsets where two
    buffers share memory only if their lifetimes do not overlap.  A
    *bordered* buffer (a padded input, its border filled once here)
    and the stage scratch stay private.  A buffer's lifetime is the
    ``(first, last)`` step interval :meth:`interval` returns; one
    without (the stage scratch, an adopted buffer) counts as live
    throughout.

    The default dtype is float32 — the device execution dtype
    (``kernels.base.FLOAT_BYTES``); a float64 arena is only warranted
    when the model's weights are float64, which :func:`compile_plan`
    decides per model.
    """

    def __init__(self, dtype: np.dtype = np.dtype(np.float32)) -> None:
        self.dtype = np.dtype(dtype)
        self.slab = np.zeros(0, dtype=self.dtype)
        self._buffers: Dict[str, np.ndarray] = {}
        self._borders: Dict[str, float] = {}
        self._pads: Dict[str, int] = {}
        self._intervals: Dict[str, Tuple[int, int]] = {}
        self._packed: Set[str] = set()

    def allocate(self, name: str, shape: Tuple[int, ...],
                 border: Optional[float] = None, pad: int = 0) -> np.ndarray:
        """Allocate (zeroed) and register one private buffer; names are
        unique.  A ``border`` buffer starts filled with it: the padded
        input of a windowed stage, whose outer ``pad`` rows and columns
        are never written again."""
        if name in self._buffers:
            raise ValueError(f"arena buffer {name!r} already allocated")
        buf = np.zeros(shape, dtype=self.dtype)
        if border is not None:
            if border:
                buf.fill(border)
            self._borders[name] = border
            self._pads[name] = pad
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

    def border(self, name: str) -> Optional[float]:
        """The border fill of a padded input; ``None`` for the rest."""
        return self._borders.get(name)

    def interior(self, name: str) -> np.ndarray:
        """The part of ``name`` a request writes: a padded input inside
        its border, any other buffer whole."""
        buf = self._buffers[name]
        p = self._pads.get(name, 0)
        if not p:
            return buf
        return buf[..., p:buf.shape[-2] - p, p:buf.shape[-1] - p]

    def interval(self, name: str) -> Optional[Tuple[int, int]]:
        """``name``'s first and last step, or ``None``: live throughout."""
        return self._intervals.get(name)

    def pack(self, intervals: Dict[str, Tuple[int, int]]) -> Set[str]:
        """Record each buffer's lifetime and move the plain buffers
        into the slab: largest first, each at the lowest offset (a
        multiple of 64 bytes) clear of every placed buffer whose
        lifetime overlaps its own.  Returns the names moved.

        Packing copies no values, so call it before anything is
        written but the borders, and re-point every view of a moved
        buffer with :meth:`view`."""
        align = max(1, 64 // self.dtype.itemsize)
        plain = [n for n in self._buffers if n not in self._borders]
        placed: List[Tuple[int, int, int, int]] = []  # (lo, hi, first, last)
        offsets: Dict[str, int] = {}
        for name in sorted(plain, key=lambda n: (-self._buffers[n].size,
                                                 intervals[n])):
            first, last = intervals[name]
            size = -(-self._buffers[name].size // align) * align
            offset = 0
            for lo, hi, _, _ in sorted(p for p in placed
                                       if p[2] <= last and first <= p[3]):
                if offset + size <= lo:
                    break
                offset = max(offset, hi)
            offsets[name] = offset
            placed.append((offset, offset + size, first, last))
        self.slab = np.zeros(max((hi for _, hi, _, _ in placed), default=0),
                             dtype=self.dtype)
        for name, offset in offsets.items():
            shape = self._buffers[name].shape
            self._buffers[name] = \
                self.slab[offset:offset + prod(shape)].reshape(shape)
        self._intervals = dict(intervals)
        self._packed = set(offsets)
        return self._packed

    def view(self, name: str, offset: int, like: np.ndarray) -> np.ndarray:
        """The view of buffer ``name`` that starts ``offset`` bytes in
        with ``like``'s shape, strides and writeability: a view taken
        before :meth:`pack`, made again over where the buffer is now."""
        view = np.ndarray(like.shape, like.dtype, buffer=self._buffers[name],
                          offset=offset, strides=like.strides)
        view.flags.writeable = like.flags.writeable
        return view

    @property
    def n_buffers(self) -> int:
        return len(self._buffers)

    @property
    def nbytes(self) -> int:
        """Bytes held, each once: the slab plus the private buffers."""
        return self.slab.nbytes + sum(b.nbytes for n, b in
                                      self._buffers.items()
                                      if n not in self._packed)


def _address(a: np.ndarray) -> int:
    return a.ctypes.data


#: What a stage attribute may hold besides arrays: values that cannot
#: hide one.
_PLAIN = (type(None), bool, int, float, str, np.generic, np.dtype,
          np.ufunc, ConvShape)


def _arrays(step: object) -> List[np.ndarray]:
    """Every array ``step`` holds: the attributes of the step and, for
    a compiled site, of each of its stages, and the items of their
    list attributes.

    Lifetimes and the move into the slab both read buffers through
    this walk, so it raises on any value that could hide an array from
    it (a dict, a tuple of arrays, a nested container, an object of
    another kind): a stage keeps an array only as an attribute or as
    an item of a flat list."""
    stages = getattr(step, "stages", None)
    holders = (step,) if stages is None else (step, *stages)
    skip = {id(stages)} | {id(h) for h in holders}
    arrays = []
    for holder in holders:
        for key, value in vars(holder).items():
            if isinstance(value, np.ndarray):
                arrays.append(value)
                continue
            if isinstance(value, _PLAIN) or id(value) in skip:
                continue
            items = value if isinstance(value, (list, tuple)) else (value,)
            for item in items:
                if isinstance(item, np.ndarray) and isinstance(value, list):
                    arrays.append(item)
                elif not isinstance(item, _PLAIN):
                    raise TypeError(
                        f"{type(holder).__name__}.{key} holds a "
                        f"{type(item).__name__} in a {type(value).__name__}"
                        f": a stage keeps arrays only as attributes or "
                        f"items of a flat list, where the arena's lifetime "
                        f"scan finds them"
                    )
    return arrays


class _Held(NamedTuple):
    """An array a step holds that lies in an arena buffer."""

    step: int
    array: np.ndarray
    buffer: str
    offset: int        # bytes from the buffer's start to the array's


def _held(arena: BufferArena, steps: Sequence[object],
          out: np.ndarray) -> List[_Held]:
    """Every array of the steps' :func:`_arrays` that lies in an arena
    buffer, found by the address of its first element, and the output,
    held one step past the last (it lives until ``run`` returns)."""
    spans = sorted((_address(b), _address(b) + b.nbytes, name)
                   for name in arena.names() if (b := arena.get(name)).size)
    starts = [lo for lo, _, _ in spans]
    arrays = [(step, a) for step, item in enumerate(steps)
              for a in _arrays(item)]
    arrays.append((len(steps), out))
    held = []
    for step, a in arrays:
        address = _address(a)
        i = bisect_right(starts, address) - 1
        if i >= 0 and address < spans[i][1]:
            held.append(_Held(step, a, spans[i][2], address - spans[i][0]))
    return held


def _lifetimes(held: Sequence[_Held], names: Sequence[str],
               n_steps: int) -> Dict[str, Tuple[int, int]]:
    """Each buffer's first and last step: the steps holding an array
    in it (a compiled site is one step, so all of its buffers live for
    the whole site).  A buffer no step holds is live throughout."""
    first: Dict[str, int] = {}
    last: Dict[str, int] = {}
    for h in held:
        first.setdefault(h.buffer, h.step)
        last[h.buffer] = h.step
    return {name: (first.get(name, 0), last.get(name, n_steps))
            for name in names}


def _rebuilt(steps: Sequence[object],
             views: Dict[int, np.ndarray]) -> list:
    """The steps, each stage and compiled site copied with every array
    in ``views`` (keyed by ``id``) swapped for its view there.

    Copying rather than setting attributes in place keeps them inline:
    reading ``vars()``, as the scan does, moves an object's attributes
    into a dict, which CPython 3.11 reads about half as fast, and every
    stage reads several attributes per call."""
    fresh: Dict[int, object] = {}

    def swap(value):
        return views.get(id(value), fresh.get(id(value), value))

    def copy(obj):
        new = object.__new__(type(obj))
        for key, value in vars(obj).items():
            setattr(new, key, [swap(v) for v in value]
                    if isinstance(value, list) else swap(value))
        fresh[id(obj)] = new
        return new

    rebuilt = []
    for step in steps:
        for stage in getattr(step, "stages", ()):
            copy(stage)
        rebuilt.append(copy(step))
    return rebuilt


# ---------------------------------------------------------------------------
# Stages: one batch-wide host op each.  ``run(x, lo, hi, slot)`` computes
# samples ``[lo, hi)``; ``x`` is the network input, read only by a stage
# whose source is ``None``; every other stage reads the arena buffer its
# producer wrote.  ``slot`` is the batch shard's index (its ``conv``
# scratch slot).
# ---------------------------------------------------------------------------

def _view(a: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """``a`` reshaped without a copy (raises if that needs one: a stage
    must write into the arena buffer itself, never into a copy)."""
    return np.reshape(a, shape, copy=False)


def _flat(a: np.ndarray) -> np.ndarray:
    """``(B, C, H, W)`` -> ``(B, C, H*W)`` view."""
    return _view(a, a.shape[:2] + (-1,))


def _windows(a: np.ndarray, k: int, stride: int, oh: int, ow: int):
    """``(B, C, k, k, OH, OW)`` view of the strided conv windows of a
    padded NCHW array (the layout of an ``(N, C, k, k)`` weight)."""
    win = sliding_window_view(a, (k, k), axis=(2, 3))
    win = win[:, :, ::stride, ::stride][:, :, :oh, :ow]
    return win.transpose(0, 1, 4, 5, 2, 3)


def _plane_windows(a: np.ndarray, k: int, oh: int, ow: int):
    """``(B, C, k, k, L)`` read-only view of the stride-1 windows of a
    padded NCHW array over each flattened ``Hp·Wp`` plane, ``L =
    (OH-1)·Wp + OW``: tap ``(r, s)`` of column ``j = y·Wp + x`` reads
    plane element ``j + r·Wp + s``, so every row is one contiguous run;
    columns with ``x >= OW`` are junk.

    The view is unchecked (``as_strided``), so the planes must be
    contiguous and the last element read must lie inside the plane:
    anything else would read memory the array does not own."""
    _, _, hp, wp = a.shape
    e = a.itemsize
    length = (oh - 1) * wp + ow
    if a.strides[2:] != (wp * e, e):
        raise AssertionError(f"plane windows need contiguous {hp}x{wp} "
                             f"planes, got strides {a.strides}")
    if (k - 1) * (wp + 1) + length - 1 >= hp * wp:
        raise AssertionError(f"plane windows of {k}x{k} taps over "
                             f"{length} columns overrun the {hp}x{wp} plane")
    return as_strided(a, a.shape[:2] + (k, k, length),
                      a.strides[:2] + (wp * e, e, e), writeable=False)


def _carve(scratch: np.ndarray, offset: int, shape: Tuple[int, ...]):
    """The ``shape`` array ``offset`` elements into the stage scratch."""
    return scratch[offset:offset + int(np.prod(shape))].reshape(shape)


class _Epilogue:
    """In-place bias + ReLU on a stage's output ``self.out``; the
    lowering sets them after construction (a layer bias, a folded
    BatchNorm, a ReLU)."""

    bias: Optional[np.ndarray] = None
    relu = False

    def _finish(self, out: np.ndarray) -> None:
        if self.bias is not None:
            out += self.bias
        if self.relu:
            np.maximum(out, 0, out=out)

    def set_bias(self, bias: np.ndarray) -> None:
        """Per-channel ``bias``, stored at one output sample's shape:
        adding equal shapes skips NumPy's buffered broadcast (about
        twice as fast as a ``(N, 1)`` column)."""
        shape = self.out.shape[1:]
        column = np.reshape(bias, (-1,) + (1,) * (len(shape) - 1))
        self.bias = np.array(np.broadcast_to(column, shape),
                             dtype=self.out.dtype, order="C")

    def fold_bn(self, scale: np.ndarray, shift: np.ndarray) -> None:
        """Fold an eval BatchNorm on this (conv) stage's output into
        its weight rows and bias."""
        self.weight *= scale[:, None]
        bias = 0.0 if self.bias is None else self.bias[:, 0]
        self.set_bias(bias * scale + shift)


class PointwiseStage(_Epilogue):
    """1x1 projection: ``(N, C) @ (b, C, H*W)``, one GEMM per sample."""

    def __init__(self, weight, src, out) -> None:
        self.weight = weight                     # (N, C)
        self.src = None if src is None else _flat(src)
        self.out = _flat(out)

    def run(self, x, lo, hi, slot=0) -> None:
        if self.src is None:
            src = x[lo:hi].reshape(hi - lo, x.shape[1], -1)
        else:
            src = self.src[lo:hi]
        out = self.out[lo:hi]
        np.matmul(self.weight, src, out=out)
        self._finish(out)


class _Im2col:
    """The stage-scratch layout of ``conv`` and ``dw``: the im2col
    ``cols``, then, when the windows are pitched, the GEMM's pitched
    rows.  A subclass sets ``win``, ``cols_shape``, ``dest`` (the
    output, shaped like the rows' valid columns) and, when pitched,
    ``rows_shape`` ``(..., OH, Wp)``."""

    rows_shape: Optional[Tuple[int, ...]] = None

    @property
    def layout(self) -> str:
        """``pitched`` (plane windows) or ``windows`` (the 2-D view)."""
        return "windows" if self.rows_shape is None else "pitched"

    @property
    def scratch_size(self) -> int:
        """Stage-scratch elements this stage uses."""
        rows = 0 if self.rows_shape is None else int(np.prod(self.rows_shape))
        return int(np.prod(self.cols_shape)) + rows

    def bind(self, scratch: np.ndarray) -> None:
        self.cols = _carve(scratch, 0, self.cols_shape)
        self.rows = self.valid = None
        if self.rows_shape is not None:
            # The GEMM writes the first L columns of the pitched rows;
            # the compaction copies each row's first OW.
            rows = _carve(scratch, self.cols.size, self.rows_shape)
            flat = _view(rows, self.rows_shape[:-2] + (-1,))
            self.rows = flat[..., :self.cols_shape[-1]]
            self.valid = rows[..., :self.dest.shape[-1]]


class ConvStage(_Epilogue, _Im2col):
    """Dense ``RxS`` conv, one sample at a time: copy the sample's
    windows into the shard's scratch slot (im2col), then one
    ``matmul``.  ``base`` is the (padded) input, ``None`` for the
    network input (its 2-D windows are taken per call).  At stride 1
    over an arena buffer the windows are pitched
    (:func:`_plane_windows`): the ``matmul`` writes ``(N, OH, Wp)``
    rows after the cols in the slot, and one strided copy moves their
    first ``OW`` columns into the output."""

    def __init__(self, weight, base, out, stride, slots) -> None:
        n, c, k, _ = weight.shape
        _, _, oh, ow = out.shape
        self.k, self.stride = k, stride
        self.weight = weight.reshape(n, -1)      # (N, C*k*k)
        self.src, self.dest = base, out
        self.out = _flat(out)
        if base is not None and stride == 1:
            self.win = _plane_windows(base, k, oh, ow)
            self.cols_shape = (slots,) + self.win.shape[1:]
            self.rows_shape = (slots, n, oh, base.shape[3])
        else:
            self.win = None if base is None else _windows(base, k, stride,
                                                          oh, ow)
            self.cols_shape = (slots, c, k, k, oh, ow)

    def bind(self, scratch: np.ndarray) -> None:
        super().bind(scratch)
        self.cols2 = _view(self.cols, self.cols_shape[:1]
                           + (self.weight.shape[1], -1))

    def run(self, x, lo, hi, slot=0) -> None:
        win = self.win
        if win is None:
            win = _windows(x, self.k, self.stride, *self.cols_shape[-2:])
        cols, cols2 = self.cols[slot], self.cols2[slot]
        for i in range(lo, hi):
            np.copyto(cols, win[i])
            if self.rows is None:
                np.matmul(self.weight, cols2, out=self.out[i])
            else:
                np.matmul(self.weight, cols2, out=self.rows[slot])
                np.copyto(self.dest[i], self.valid[slot])
        self._finish(self.out[lo:hi])


class DepthwiseStage(_Im2col):
    """Depthwise ``RxS`` conv: one copy of the batch's windows into the
    stage scratch, then one stacked ``(R, 1, G·k²) @ (b, R, G·k², P)``
    matmul.  ``G = groups`` consecutive channels sum into one output
    channel: 1 for CP, ``r2`` for TT's group-sum.  At stride 1 the
    windows are pitched (:func:`_plane_windows`): the matmul writes
    ``(OH, Wp)`` rows after the cols, and one strided copy of the
    batch's first ``OW`` columns moves them into the output."""

    def __init__(self, weight, base, out, stride, groups=1) -> None:
        q, k, _ = weight.shape
        m, r, oh, ow = out.shape                 # r == q // groups
        self.weight = weight.reshape(r, 1, groups * k * k)
        self.src = base
        self.out = _view(out, (m, r, 1, oh * ow))
        self.dest = _view(out, (m, r, 1, oh, ow))
        if stride == 1:
            self.win = _plane_windows(base, k, oh, ow)
            self.rows_shape = (m, r, 1, oh, base.shape[3])
        else:
            self.win = _windows(base, k, stride, oh, ow)
        self.cols_shape = self.win.shape

    def bind(self, scratch: np.ndarray) -> None:
        super().bind(scratch)
        self.cols4 = _view(self.cols, self.out.shape[:2]
                           + (self.weight.shape[2], -1))

    def run(self, x, lo, hi, slot=0) -> None:
        np.copyto(self.cols[lo:hi], self.win[lo:hi])
        if self.rows is None:
            np.matmul(self.weight, self.cols4[lo:hi], out=self.out[lo:hi])
        else:
            np.matmul(self.weight, self.cols4[lo:hi], out=self.rows[lo:hi])
            np.copyto(self.dest[lo:hi], self.valid[lo:hi])


class AffineStage:
    """Per-channel ``out = max(src * scale + shift, 0)``: a BatchNorm
    with no site to fold into, with or without its ReLU.  With no
    ``scale`` it copies (or rectifies) — the staging of a padded
    input."""

    def __init__(self, src, out, scale=None, shift=None, relu=False):
        self.src = src
        self.out = out
        self.scale = self.shift = None
        if scale is not None:
            self.scale = scale.astype(out.dtype)[:, None, None]
            self.shift = shift.astype(out.dtype)[:, None, None]
        self.relu = relu

    def run(self, x, lo, hi, slot=0) -> None:
        src = (x if self.src is None else self.src)[lo:hi]
        out = self.out[lo:hi]
        if self.scale is not None:
            np.multiply(src, self.scale, out=out)
            out += self.shift
            if self.relu:
                np.maximum(out, 0, out=out)
        elif self.relu:
            np.maximum(src, 0, out=out)
        else:
            np.copyto(out, src)


class PoolStage:
    """Max or average pooling: a tap loop over the strided windows of
    the (padded) input into an arena buffer."""

    def __init__(self, base, out, k: int, stride: int, is_max: bool):
        _, _, oh, ow = out.shape
        rows, cols = (oh - 1) * stride + 1, (ow - 1) * stride + 1
        self.taps = [
            base[:, :, r:r + rows:stride, s:s + cols:stride]
            for r in range(k) for s in range(k)
        ]
        self.out = out
        self.op = np.maximum if is_max else np.add
        self.inv = None if is_max else 1.0 / (k * k)

    def run(self, x, lo, hi, slot=0) -> None:
        out = self.out[lo:hi]
        np.copyto(out, self.taps[0][lo:hi])
        for tap in self.taps[1:]:
            self.op(out, tap[lo:hi], out=out)
        if self.inv is not None:
            out *= self.inv


class GlobalPoolStage:
    """Global average pool: ``(B, C, H, W)`` -> ``(B, C)``."""

    def __init__(self, src, out) -> None:
        self.src = _flat(src)
        self.out = out

    def run(self, x, lo, hi, slot=0) -> None:
        np.mean(self.src[lo:hi], axis=2, out=self.out[lo:hi])


class LinearStage(_Epilogue):
    """Fully connected head: ``src @ W^T (+ bias)`` into a buffer."""

    def __init__(self, weight, src, out) -> None:
        self.weight_t = weight.T
        self.src = src
        self.out = out

    def run(self, x, lo, hi, slot=0) -> None:
        out = self.out[lo:hi]
        np.matmul(self.src[lo:hi], self.weight_t, out=out)
        self._finish(out)


class AddStage(_Epilogue):
    """Residual add, in place into the main branch's buffer (the
    block's ReLU is the epilogue)."""

    def __init__(self, main, skip) -> None:
        self.out = main
        self.skip = skip

    def run(self, x, lo, hi, slot=0) -> None:
        out = self.out[lo:hi]
        skip = x if self.skip is None else self.skip
        np.add(out, skip[lo:hi], out=out)
        self._finish(out)


# ---------------------------------------------------------------------------
# Compiled sites
# ---------------------------------------------------------------------------

class _CompiledSite:
    """One compiled conv site: its stage list over arena buffers.

    ``forward`` runs the list on the whole batch, or — when
    :func:`compile_plan` marked the site parallel and the batch
    supports >= 2 shards of >= 2 samples — on batch shards across the
    worker pool.  The subclasses name the site's format (and the fused
    plan); they differ only in the stage list the lowering builds.
    """

    #: Set by compile_plan when the perf model picks parallel.
    threads = 1
    pool = None
    est_speedup = 1.0
    site_latency_s = 0.0

    def __init__(self, site: LayerSite, backend: Optional[str], stages,
                 core_stage, core_shape, out: np.ndarray) -> None:
        self.site_name = site.name
        self.format = site.format
        self.backend = backend
        self.input_shape = (site.module.in_channels, site.height, site.width)
        self.stages = stages
        self.core_stage = core_stage
        self.core_shape = core_shape
        self.out = out

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the site on the batch of network input ``x``."""
        b = x.shape[0]
        shards = plan_batch_shards(b, self.threads)
        if len(shards) > 1:
            self.pool.run_tasks([
                partial(self._run, x, lo, hi, slot)
                for slot, (lo, hi) in enumerate(shards)
            ])
        else:
            self._run(x, 0, b)
        return self.out[:b]

    def _run(self, x: np.ndarray, lo: int, hi: int, slot: int = 0) -> None:
        for stage in self.stages:
            stage.run(x, lo, hi, slot)


class CompiledConv2d(_CompiledSite):
    """A dense conv site: ``[conv]``."""


class CompiledTuckerConv2d(_CompiledSite):
    """A Tucker site (Eqs. 2-4): ``[pw, conv, pw]``."""


class CompiledCPConv2d(_CompiledSite):
    """A CP site: ``[pw, dw, pw]``."""


class CompiledTTConv2d(_CompiledSite):
    """A TT site: ``[pw, dw, pw]``, the group-sum folded into ``dw``."""


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


# ---------------------------------------------------------------------------
# Lowering: the module tree -> one stage list
# ---------------------------------------------------------------------------

@dataclass
class _Act:
    """An activation while lowering: the arena buffer holding it
    (``None`` = the network input), its per-sample shape, the stage
    that wrote it and may still take a folded BatchNorm or a ReLU
    (``None`` once another consumer may read it), and a per-channel
    ``(scale, shift, relu)`` prologue not yet applied."""

    buf: Optional[np.ndarray]
    shape: Tuple[int, ...]
    owner: Optional[_Epilogue] = None
    pre: Optional[Tuple] = None


#: Module types whose forward runs named children in order.
_CHAINS = {
    ResNet: ("stem", "blocks", "pool", "fc"),
    VGG: ("features", "pool", "fc"),
    DenseNet: ("stem", "stages", "final_bn", "final_relu", "pool", "fc"),
    DenseLayer: ("bn", "relu", "conv"),
    Transition: ("bn", "relu", "conv", "pool"),
}

#: Residual blocks: main-branch children, then the ReLU after the add.
_RESIDUALS = {
    BasicBlock: (("conv1", "bn1", "relu1", "conv2", "bn2"), "relu2"),
    Bottleneck: (("conv1", "bn1", "relu1", "conv2", "bn2", "relu2",
                  "conv3", "bn3"), "relu3"),
}


def _bn_affine(bn: BatchNorm2d) -> Tuple[np.ndarray, np.ndarray]:
    """Eval BatchNorm as per-channel ``(scale, shift)`` (float64)."""
    scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
    return scale, bn.beta.data - bn.running_mean * scale


class _Lowering:
    """Walks the module tree once, appending sites and stages to
    ``steps`` in execution order."""

    def __init__(self, arena: BufferArena, max_batch: int,
                 sites: Sequence[LayerSite], backends: Dict[str, str],
                 slots: Dict[str, int]) -> None:
        self.arena = arena
        self.max_batch = max_batch
        self.traced = {s.name: s for s in sites}
        self.backends = backends
        self.slots = slots
        self.steps: list = []
        self.sites: List[_CompiledSite] = []

    # -- buffers --------------------------------------------------------
    def alloc(self, name: str, shape: Tuple[int, ...],
              border: Optional[float] = None, pad: int = 0) -> np.ndarray:
        return self.arena.allocate(name, (self.max_batch,) + tuple(shape),
                                   border, pad)

    def weight(self, array: np.ndarray) -> np.ndarray:
        """An owned, contiguous copy in the execution dtype."""
        return np.array(array, dtype=self.arena.dtype, order="C")

    def write(self, act: _Act, out: np.ndarray, steps: list) -> None:
        """Append the stage writing ``act`` (its prologue applied)
        into ``out``."""
        steps.append(AffineStage(act.buf, out, *(act.pre or ())))

    def buffered(self, act: _Act, name: str) -> _Act:
        """``act`` in an arena buffer with its prologue applied."""
        if act.buf is not None and act.pre is None:
            return act
        out = self.alloc(name, act.shape)
        self.write(act, out, self.steps)
        return _Act(out, act.shape)

    # -- dispatch -------------------------------------------------------
    def module(self, mod: Module, path: str, act: _Act,
               dest: Optional[np.ndarray] = None) -> _Act:
        """Lower ``mod`` on input ``act``; a conv site that ends it
        writes into ``dest`` when given."""
        kind = type(mod)
        if kind is Conv2d or isinstance(mod, FactoredConv2d):
            return self.site(mod, path, act, dest)
        if kind in _CHAINS or kind in (Sequential, ConvBNReLU):
            names = _CHAINS.get(kind) or mod._order
            for i, name in enumerate(names):
                last = i == len(names) - 1
                act = self.module(getattr(mod, name), _join(path, name),
                                  act, dest if last else None)
            return act
        if kind in _RESIDUALS:
            return self.residual(mod, path, act)
        rule = {
            BatchNorm2d: self.batchnorm,
            ReLU: self.relu,
            MaxPool2d: self.pool,
            AvgPool2d: self.pool,
            GlobalAvgPool2d: self.global_pool,
            Flatten: self.flatten,
            Linear: self.linear,
            DenseBlock: self.dense_block,
        }.get(kind)
        if rule is not None:
            return rule(mod, path, act)
        if kind in (Dropout, Identity):
            return act
        raise TypeError(
            f"compile_plan has no lowering rule for {kind.__name__} at "
            f"{path or '<root>'!r}"
        )

    # -- conv sites -----------------------------------------------------
    def site(self, mod, path: str, act: _Act,
             dest: Optional[np.ndarray]) -> _Act:
        site = self.traced.get(path)
        c, h, w = act.shape
        if site is None or (site.height, site.width) != (h, w):
            raise ValueError(
                f"conv {path!r} is not a traced site of this model at "
                f"input extent {(h, w)}; pass the sites traced for this "
                f"model and input size"
            )
        k, stride, p = mod.kernel_size, mod.stride, mod.padding
        oh, ow = mod.output_shape(h, w)
        out = dest if dest is not None else self.alloc(
            f"{path}.out", (mod.out_channels, oh, ow)
        )
        stages: list = []

        def source(a: _Act) -> Optional[np.ndarray]:
            """``a``'s buffer for a stage reading it unpadded."""
            if a.pre is None:
                return a.buf
            buf = self.alloc(f"{path}.xin", a.shape)
            self.write(a, buf, stages)
            return buf

        def padded(a: _Act) -> Optional[np.ndarray]:
            """``a`` staged into a zero-border buffer for a windowed
            stage (or read directly when unpadded)."""
            if not p:
                return source(a)
            ch, hh, ww = a.shape
            buf = self.alloc(f"{path}.xpad", (ch, hh + 2 * p, ww + 2 * p),
                             border=0.0, pad=p)
            self.write(a, buf[:, :, p:p + hh, p:p + ww], stages)
            return buf

        core, shape = None, None
        if site.format == "dense":
            weight = self.weight(mod.weight.data)
            if k == 1 and stride == 1 and p == 0:
                stages.append(PointwiseStage(weight[:, :, 0, 0], source(act),
                                             out))
            else:
                stages.append(ConvStage(weight, padded(act), out, stride,
                                        self.slots.get(path, 1)))
                if k > 1:  # a strided 1x1 is planned as a pointwise GEMM
                    core = stages[-1]
                    shape = ConvShape(c=c, n=mod.out_channels, h=oh, w=ow,
                                      r=k, s=k)
        else:
            ch = mod.chain
            weights = mod.export_weights(dtype=self.arena.dtype)
            z1 = self.alloc(f"{path}.z1", (ch.mid, h, w))
            stages.append(PointwiseStage(weights["w_in"], source(act), z1))
            z1 = _Act(z1, (ch.mid, h, w))
            z2 = self.alloc(f"{path}.z2", (ch.out, oh, ow))
            if ch.depthwise:
                core = DepthwiseStage(weights["core"], padded(z1), z2, stride,
                                      ch.core_out // ch.out)
            else:
                core = ConvStage(weights["core"], padded(z1), z2, stride,
                                 self.slots.get(path, 1))
            shape = ConvShape(c=ch.mid, n=ch.core_out, h=oh, w=ow, r=k, s=k)
            stages += [core, PointwiseStage(weights["w_out"], z2, out)]
        if mod.bias is not None:
            stages[-1].set_bias(mod.bias.data)
        backend = self.backends[path]
        cls = CompiledFusedSite if backend == "fused" \
            else _SITE_CLASSES[site.format]
        compiled = cls(site, backend, stages, core, shape, out)
        self.sites.append(compiled)
        self.steps.append(compiled)
        return _Act(out, (mod.out_channels, oh, ow), owner=stages[-1])

    # -- auxiliary modules -----------------------------------------------
    def batchnorm(self, mod: BatchNorm2d, path: str, act: _Act) -> _Act:
        scale, shift = _bn_affine(mod)
        owner = act.owner
        if (act.pre is None and isinstance(owner, (PointwiseStage, ConvStage))
                and not owner.relu):
            owner.fold_bn(scale, shift)
            return act
        act = self.buffered(act, f"{path}.in") if act.pre else act
        return _Act(act.buf, act.shape, pre=(scale, shift, False))

    def relu(self, mod: ReLU, path: str, act: _Act) -> _Act:
        if act.pre is not None:
            scale, shift, _ = act.pre
            return _Act(act.buf, act.shape, pre=(scale, shift, True))
        if act.owner is not None:
            act.owner.relu = True
            return act
        return _Act(act.buf, act.shape, pre=(None, None, True))

    def residual(self, mod, path: str, act: _Act) -> _Act:
        main_names, relu_name = _RESIDUALS[type(mod)]
        # Both branches read the block input: nothing may write it.
        x = self.buffered(act, f"{path}.in") if act.pre else act
        x = _Act(x.buf, x.shape)
        main = x
        for name in main_names:
            main = self.module(getattr(mod, name), _join(path, name), main)
        skip = self.module(mod.shortcut, _join(path, "shortcut"), x)
        # The main branch ends in a conv site with its BatchNorm folded
        # in: nothing else reads its output, so the add runs in place.
        add = AddStage(main.buf, skip.buf)
        self.steps.append(add)
        return self.relu(getattr(mod, relu_name), _join(path, relu_name),
                         _Act(main.buf, main.shape, owner=add))

    def pool(self, mod, path: str, act: _Act) -> _Act:
        k, stride, p = mod.kernel_size, mod.stride, mod.padding
        c, h, w = act.shape
        oh = conv_out_size(h, k, stride, p)
        ow = conv_out_size(w, k, stride, p)
        is_max = isinstance(mod, MaxPool2d)
        if p:
            # Padded cells never win the max.
            border = np.finfo(self.arena.dtype).min if is_max else 0.0
            base = self.alloc(f"{path}.xpad", (c, h + 2 * p, w + 2 * p),
                              border=float(border), pad=p)
            self.write(act, base[:, :, p:p + h, p:p + w], self.steps)
        else:
            base = self.buffered(act, f"{path}.in").buf
        out = self.alloc(f"{path}.out", (c, oh, ow))
        self.steps.append(PoolStage(base, out, k, stride, is_max))
        return _Act(out, (c, oh, ow))

    def global_pool(self, mod, path: str, act: _Act) -> _Act:
        act = self.buffered(act, f"{path}.in")
        out = self.alloc(f"{path}.out", act.shape[:1])
        self.steps.append(GlobalPoolStage(act.buf, out))
        return _Act(out, act.shape[:1])

    def flatten(self, mod, path: str, act: _Act) -> _Act:
        act = self.buffered(act, f"{path}.in")
        n = int(np.prod(act.shape))
        return _Act(_view(act.buf, (self.max_batch, n)), (n,))

    def linear(self, mod: Linear, path: str, act: _Act) -> _Act:
        act = self.buffered(act, f"{path}.in")
        out = self.alloc(f"{path}.out", (mod.out_features,))
        stage = LinearStage(self.weight(mod.weight.data), act.buf, out)
        if mod.bias is not None:
            stage.set_bias(mod.bias.data)
        self.steps.append(stage)
        return _Act(out, (mod.out_features,), owner=stage)

    def dense_block(self, mod: DenseBlock, path: str, act: _Act) -> _Act:
        c, h, w = act.shape
        block = self.alloc(f"{path}.out", (mod.out_channels, h, w))
        self.write(act, block[:, :c], self.steps)
        for name in mod._layer_names:
            # The layer's conv writes its channel slice of the block.
            self.module(getattr(mod, name), _join(path, name),
                        _Act(block[:, :c], (c, h, w)),
                        block[:, c:c + mod.growth])
            c += mod.growth
        return _Act(block, (c, h, w))


def _join(path: str, name: str) -> str:
    return f"{path}.{name}" if path else name


class Executable:
    """A runnable, self-contained compilation of (plan, model, device).

    Produced by :func:`compile_plan`; executes real numeric forward
    passes as one stage list over its arena — the compiled sites and
    the stages between them.  Not thread-safe — one arena means one
    in-flight request; see :class:`repro.serving.InferenceSession` for
    concurrency.
    """

    def __init__(
        self,
        plan: ExecutionPlan,
        device: DeviceSpec,
        arena: BufferArena,
        steps: Sequence[object],
        out: np.ndarray,
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
        self._steps = list(steps)
        self._sites = [s for s in self._steps if isinstance(s, _CompiledSite)]
        self._out = out
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
        """Arena footprint, each byte once: the slab of activations,
        the padded inputs and the one shared stage scratch (a parallel
        site adds one ``conv`` scratch slot per extra shard)."""
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
        source model; the batch must not exceed ``max_batch``.  Returns
        a new array the caller owns.
        """
        x = np.asarray(x)
        if x.ndim == 3:
            x = x[None]
        if x.ndim != 4 or x.shape[1:] != self.input_shape:
            raise ValueError(
                f"expected input (B, {', '.join(map(str, self.input_shape))})"
                f" with B <= {self.max_batch}, got {x.shape}"
            )
        b = x.shape[0]
        if b > self.max_batch:
            raise ValueError(
                f"batch {b} exceeds compiled max_batch "
                f"{self.max_batch}; recompile with a larger max_batch or "
                f"let an InferenceSession micro-batch the requests"
            )
        if x.dtype != self.dtype:
            x = x.astype(self.dtype)  # repro: ignore[hot-path-alloc] -- cold-path dtype cast, counted via hot_casts; serving pre-converts in the staging buffer
            self.hot_casts += 1
        for step in self._steps:
            if isinstance(step, _CompiledSite):
                step.forward(x)
            else:
                step.run(x, 0, b)
        self.requests_served += 1
        return self._out[:b].copy()  # repro: ignore[hot-path-alloc] -- the returned array, owned by the caller; the arena is reused next request

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
            f"{len(self._sites)} sites, {len(self._steps)} steps, "
            f"max_batch={self.max_batch}, "
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
            continue  # aux kinds are priced, not bound
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
        return np.dtype(np.float64)  # repro: ignore[dtype-promotion] -- a model with no weights keeps the float64 training stack's dtype
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
    of them, and lowers the whole module tree — every conv site to its
    stage list, every other module by its lowering rule (see the module
    docstring) — into one stage list over a preallocated arena, with
    weights and eval-mode BatchNorm statistics copied in.  The
    lowering allocates private buffers; the steps' arrays then give
    each buffer's lifetime, the plain activations move into the slab
    by it (:meth:`BufferArena.pack`), and every view is re-pointed
    there.  The model is only read.

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
    names = [s.name for s in sites]
    cores = _index_plan(plan, names)
    missing = [
        f"{s.name}.core" if s.is_factored else s.name
        for s in sites if s.name not in cores
    ]
    if missing:
        raise ValueError(
            f"plan does not cover conv sites {missing[:8]}; was it built "
            f"by plan_model for this model (same decomposition state)?"
        )

    parallel: Dict[str, Tuple[float, float]] = {}
    if threads > 1:
        for name, lat in _site_latencies(plan, names).items():
            go, est = should_parallelize(lat, threads)
            if go:
                parallel[name] = (est, lat)
    # A parallel site's conv stages take one scratch slot per shard.
    n_shards = max(1, len(plan_batch_shards(max_batch, threads)))

    arena = BufferArena(dtype=dtype)
    lowering = _Lowering(
        arena, max_batch, sites,
        backends={name: k.backend for name, k in cores.items()},
        slots={name: n_shards for name in parallel},
    )
    act = lowering.module(
        model, "", _Act(None, (in_channels,) + tuple(image_hw))
    )
    out = lowering.buffered(act, "output").buf
    unreached = sorted(set(names) - {s.site_name for s in lowering.sites})
    if unreached:
        raise ValueError(
            f"traced conv sites {unreached[:8]} are not reached by the "
            f"lowering of {type(model).__name__}"
        )
    # Read each buffer's lifetime from the arrays the stages hold, move
    # the plain activations into the slab by it, and re-point the views.
    held = _held(arena, lowering.steps, out)
    moved = arena.pack(_lifetimes(held, arena.names(), len(lowering.steps)))
    views = {id(h.array): arena.view(h.buffer, h.offset, h.array)
             for h in held if h.buffer in moved}
    steps = _rebuilt(lowering.steps, views)
    out = views.get(id(out), out)

    # One scratch for every stage: stages run one after another, and
    # batch shards of one site write disjoint slices (or slots) of it.
    scratched = [
        st for step in steps
        for st in getattr(step, "stages", (step,))
        if isinstance(st, _Im2col)
    ]
    scratch = arena.allocate(STAGE_SCRATCH, (max(
        [st.scratch_size for st in scratched], default=0
    ),))
    for st in scratched:
        st.bind(scratch)

    for site in steps:
        if isinstance(site, _CompiledSite) and site.site_name in parallel:
            # threads lanes = the caller + (threads - 1) workers.
            site.pool = get_pool(threads - 1)
            site.threads = threads
            site.est_speedup, site.site_latency_s = parallel[site.site_name]
    if parallel:
        # Record the decision on a *copy*: the planner's plan (and any
        # cache holding it) stays untouched.
        plan = ExecutionPlan(
            model_name=plan.model_name,
            device_name=plan.device_name,
            variant=plan.variant,
            kernels=[
                dc_replace(k, parallel=True)
                if k.kind in _CONV_KINDS and _kernel_site(k) in parallel
                else k
                for k in plan.kernels
            ],
        )

    return Executable(
        plan=plan,
        device=device,
        arena=arena,
        steps=steps,
        out=out,
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
