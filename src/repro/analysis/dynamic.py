"""Dynamic invariant probes: allocation tracing, arena aliasing and
stale reads.

The runtime half of ``repro.analysis``.  Where ``analysis.lint`` walks
ASTs, this module *executes* a compiled :class:`Executable` and checks
three contracts the static rules cannot fully prove:

- **zero steady-state allocation** — :func:`trace_allocations` patches
  the numpy module-level allocators (the same technique the serving
  benchmark gates on) and counts calls over a warm ``Executable.run``;
- **no live aliasing** — :func:`arena_overlaps` proves via
  ``np.shares_memory`` that no two named arena buffers (site
  activations, padded stage inputs, the shared stage scratch) overlap
  while both are live.  Buffers share the arena's slab by design when
  their step lifetimes are disjoint, so a pair counts only if its
  lifetimes overlap too;
- **written before read** — :func:`stale_reads` fills the slab, the
  stage scratch and each padded input's interior with NaN between two
  runs of one input and requires bit-identical outputs, at full and
  partial batch: a stage that reads a byte this request has not
  written yet (a lifetime drawn too short, a buffer placed on a live
  one, a skipped staging copy) changes the output.

The tracer is process-global (it swaps ``np.zeros`` et al.), so probe
single-threaded executables or quiesce other allocating threads first;
worker-lane allocations *are* counted, which is exactly what the
parallel zero-alloc test wants.

``.astype``/``.copy`` are ndarray *methods* and cannot be patched on
the C type — the static ``hot-path-alloc`` rule covers those.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: numpy module-level allocators the steady-state hot path must never
#: call.  Superset of the tuple the original per-test counters used.
ALLOC_NAMES: Tuple[str, ...] = (
    "zeros", "empty", "ones", "full", "pad",
    "zeros_like", "empty_like", "ones_like", "full_like",
    "concatenate", "stack",
)


@dataclass
class AllocationTrace:
    """Mutable counter map filled in while a trace is active."""

    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def nonzero(self) -> Dict[str, int]:
        return {n: c for n, c in self.counts.items() if c}

    def assert_zero(self, context: str = "hot path") -> None:
        if self.total:
            raise AssertionError(
                f"{context} performed {self.total} numpy allocations: "
                f"{self.nonzero()}"
            )


@contextmanager
def trace_allocations(
    names: Sequence[str] = ALLOC_NAMES,
) -> Iterator[AllocationTrace]:
    """Count calls to numpy allocators while the block runs.

    Reentrant use is not supported (the inner trace would also count
    into the outer one through the wrappers); keep one trace active.
    """
    trace = AllocationTrace({n: 0 for n in names})
    originals = {n: getattr(np, n) for n in names}

    def wrap(name: str, fn: Callable) -> Callable:
        def counted(*args, **kwargs):
            trace.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    for n in names:
        setattr(np, n, wrap(n, originals[n]))
    try:
        yield trace
    finally:
        for n, orig in originals.items():
            setattr(np, n, orig)


def count_allocations(
    fn: Callable[[], object], names: Sequence[str] = ALLOC_NAMES
) -> Dict[str, int]:
    """Run ``fn`` under the tracer; return only the nonzero counts
    (so a clean run compares equal to ``{}``)."""
    with trace_allocations(names) as trace:
        fn()
    return trace.nonzero()


# ---------------------------------------------------------------------------
# Executable probes
# ---------------------------------------------------------------------------

def probe_input(executable, batch: Optional[int] = None) -> np.ndarray:
    """Deterministic input matching the executable's compiled shape."""
    b = executable.max_batch if batch is None else int(batch)
    rng = np.random.default_rng(0x7DC)
    x = rng.standard_normal((b,) + tuple(executable.input_shape))
    return x.astype(executable.dtype, copy=False)


def hot_path_allocations(
    executable,
    x: Optional[np.ndarray] = None,
    warm_runs: int = 1,
    names: Sequence[str] = ALLOC_NAMES,
) -> Dict[str, int]:
    """Nonzero allocator counts over one steady-state ``run``.

    Runs ``warm_runs`` untraced calls first so one-time lazy work
    (first-touch caches, einsum paths) never counts against the
    steady state — the same discipline the original tests used.
    """
    if x is None:
        x = probe_input(executable)
    for _ in range(max(0, warm_runs)):
        executable.run(x)
    return count_allocations(lambda: executable.run(x), names)


def assert_zero_alloc_hot_path(
    executable, x: Optional[np.ndarray] = None, warm_runs: int = 1
) -> None:
    counts = hot_path_allocations(executable, x, warm_runs)
    if counts:
        raise AssertionError(
            f"steady-state Executable.run allocated: {counts}"
        )


def _live_together(a: Optional[Tuple[int, int]],
                   b: Optional[Tuple[int, int]]) -> bool:
    """Whether two ``(first, last)`` step intervals overlap; ``None``
    is live throughout."""
    return a is None or b is None or (a[0] <= b[1] and b[0] <= a[1])


def arena_overlaps(executable) -> List[Tuple[str, str]]:
    """Pairs of distinct arena buffers that share memory while both
    are live.

    Covers every named buffer in the executable's
    :class:`BufferArena` — site activations (views of the slab),
    padded stage inputs (``<site>.xpad``), and the one
    ``stage.scratch`` every site's stages share.  Two buffers may share
    memory only if their lifetimes — the ``(first, last)`` step
    intervals ``BufferArena.interval`` records, ``None`` for live
    throughout — do not overlap: one is dead before the other is first
    written.  Any reported pair means two live buffers can corrupt each
    other, so the expected result is always the empty list.
    """
    arena = executable.arena
    named = [(name, arena.get(name), arena.interval(name))
             for name in arena.names()]
    overlaps: List[Tuple[str, str]] = []
    for i, (name_a, buf_a, life_a) in enumerate(named):
        if buf_a.size == 0:
            continue
        for name_b, buf_b, life_b in named[i + 1:]:
            if buf_b.size == 0 or not _live_together(life_a, life_b):
                continue
            if np.shares_memory(buf_a, buf_b):
                overlaps.append((name_a, name_b))
    return overlaps


def assert_arena_disjoint(executable) -> None:
    overlaps = arena_overlaps(executable)
    if overlaps:
        raise AssertionError(
            f"live arena buffers alias each other: {overlaps}"
        )


def stale_reads(executable, x: Optional[np.ndarray] = None) -> List[int]:
    """Batch sizes at which a run over NaN-filled buffers differs, bit
    for bit, from a run of the same input over zeroed ones.

    Poisons every byte a request must write before it reads it: the
    slab, the stage scratch and the interior of each padded input
    (``BufferArena.interior``; the borders keep their compile-time
    fill).  Tries the full batch of ``x`` and, when it has more than
    one sample, a partial one.  A stage that reads such a byte before
    this request wrote it reads NaN and shows up here; the expected
    result is always the empty list.  A read of bytes another buffer
    wrote earlier in the same request gives the same value on both
    runs: :func:`arena_overlaps` is the check for that.
    """
    if x is None:
        x = probe_input(executable)
    arena = executable.arena
    written = [arena.slab] + [arena.interior(name) for name in arena.names()]
    stale = []
    for b in sorted({len(x), max(1, len(x) // 2)}, reverse=True):
        for buf in written:
            buf.fill(0.0)
        clean = executable.run(x[:b])
        for buf in written:
            buf.fill(np.nan)
        poisoned = executable.run(x[:b])
        if clean.tobytes() != poisoned.tobytes():
            stale.append(b)
    return stale


def probe_executables(
    model_name: str = "resnet_tiny",
    image_hw: Tuple[int, int] = (8, 8),
    backends: Optional[Sequence[str]] = None,
    formats: Sequence[str] = ("tucker",),
    max_batch: int = 2,
    budget: float = 0.5,
):
    """Yield ``(label, executable)`` across backends x formats.

    The canonical dynamic-probe sweep: one tiny preset decomposed per
    format, compiled per backend.  Backends default to every
    registered name plus ``auto``.
    """
    from repro.backends import backend_names
    from repro.codesign.pipeline import decompose_for_device
    from repro.gpusim.device import A100
    from repro.inference import compile_model
    from repro.models.registry import build_model

    if backends is None:
        backends = list(backend_names()) + ["auto"]

    for fmt in formats:
        model = build_model(model_name, seed=0)
        decompose_for_device(
            model, A100, image_hw, budget=budget, rank_step=2,
            formats=(fmt,),
        )
        model.eval()
        for backend in backends:
            exe = compile_model(
                model, A100, image_hw=image_hw, core_backend=backend,
                max_batch=max_batch, model_name=model_name,
            )
            yield f"{fmt}/{backend}", exe


def run_dynamic_probes(
    quick: bool = True,
    formats: Sequence[str] = ("tucker", "cp", "tt"),
) -> List[Dict[str, object]]:
    """Zero-alloc, aliasing and poisoned-buffer probes over backends x
    formats.

    Returns one report row per compiled executable; raises
    ``AssertionError`` on the first violated invariant.  ``quick``
    restricts the sweep to the representative backend trio the serving
    tests gate on, keeping the CI smoke job fast.
    """
    backends = ("auto", "tdc-model", "fused") if quick else None
    report: List[Dict[str, object]] = []
    for label, exe in probe_executables(backends=backends, formats=formats):
        counts = hot_path_allocations(exe)
        overlaps = arena_overlaps(exe)
        stale = stale_reads(exe)
        report.append({
            "probe": label,
            "allocations": counts,
            "overlaps": [list(pair) for pair in overlaps],
            "stale_reads": stale,
            "arena_buffers": exe.arena.n_buffers,
        })
        if counts:
            raise AssertionError(
                f"[{label}] steady-state run allocated: {counts}"
            )
        if overlaps:
            raise AssertionError(
                f"[{label}] live arena buffers alias: {overlaps}"
            )
        if stale:
            raise AssertionError(
                f"[{label}] a run over NaN-filled buffers differs from a "
                f"clean run at batch {stale}"
            )
    if not report:
        raise AssertionError("dynamic probe compiled zero executables")
    return report
