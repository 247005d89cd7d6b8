"""Tiling-size selection: the analytical "MODEL" and exhaustive "ORACLE".

Sec. 5.5 of the paper describes both selectors:

- **MODEL**: compute the analytical ``comp_latency`` for every tiling
  candidate, sort ascending, keep the top 5% (A100) / 15% (2080Ti),
  and among those pick the minimum analytical ``memory_latency``.  No
  measurement needed — this is the quick-deployment path.
- **ORACLE**: run every candidate and keep the fastest by *measured*
  latency (here: simulated latency).  This is the costly offline
  auto-tuning path, guaranteed optimal within the candidate set.

The paper reports the MODEL selection landing ~25% behind ORACLE on
average while still beating TVM by ~1.5x; the reproduction measures
the same quantities in ``benchmarks/bench_oracle_vs_model.py``.

Both selectors are *batched*: the candidate grid is evaluated as NumPy
array expressions (:mod:`repro.gpusim.batch`, the batched Eq. 15/19 in
:mod:`repro.perfmodel.analytical`) instead of one simulator round trip
per candidate, which is what makes the cold sweep fast
(``benchmarks/bench_tiling_sweep.py``).  The original per-candidate
loops are kept as ``select_tiling_*_scalar`` — the reference
implementations the equivalence suite checks the batched selectors
against, winner and tie-breaks bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.gpusim.batch import LaunchBatch, simulate_kernels_batch
from repro.gpusim.device import DeviceSpec
from repro.kernels.base import ConvShape
from repro.kernels.tdc_direct import (
    TDCDirectKernel,
    Tiling,
    is_feasible,
    is_feasible_batch,
    tdc_launch_batch,
)
from repro.perfmodel.analytical import (
    comp_latency,
    comp_latency_batch,
    memory_latency,
    memory_latency_batch,
)
from repro.planning.cache import PlanCache

# Candidate tile extents.  The paper enumerates every (TH, TW, TC) up
# to (H, W, C); we enumerate the useful subset (divisor-dense values)
# to keep the oracle sweep tractable on CPU — the excluded points are
# interior duplicates that tie with an included candidate on every
# model term.
SPATIAL_TILES: Tuple[int, ...] = (1, 2, 4, 7, 8, 14, 16, 28, 32, 56)
CHANNEL_TILES: Tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)


@dataclass(frozen=True)
class TilingChoice:
    """A selected tiling with its predicted and simulated latency."""

    tiling: Tiling
    simulated_latency: float     # seconds, from the GPU simulator
    comp_latency: float          # analytical Eq. 15
    memory_latency: float        # analytical Eq. 19 / bandwidth
    method: str                  # "oracle" | "model"


def candidate_grid(
    shape: ConvShape,
    spatial: Sequence[int] = SPATIAL_TILES,
    channel: Sequence[int] = CHANNEL_TILES,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The clipped, deduplicated ``(TH, TW, TC)`` candidate arrays.

    Enumeration order matches the scalar triple loop (TH outer, TW,
    then TC), with duplicates introduced by clipping removed at their
    first occurrence — so downstream argmins see candidates in the
    same order as the scalar path.

    Clipping bounds the extents by ``(H, W, C)``, so the mixed-radix
    key ``(TH·(W+1) + TW)·(C+1) + TC`` names each non-negative triple
    uniquely, and the dedupe runs on that 1-D key rather than on
    ``(TH, TW, TC)`` rows.
    """
    sp = np.asarray(spatial, dtype=np.int64)
    ch = np.asarray(channel, dtype=np.int64)
    n_sp, n_ch = len(sp), len(ch)
    th = np.repeat(sp, n_sp * n_ch)
    tw = np.tile(np.repeat(sp, n_ch), n_sp)
    tc = np.tile(ch, n_sp * n_sp)
    th = np.minimum(th, shape.h)
    tw = np.minimum(tw, shape.w)
    tc = np.minimum(tc, shape.c)
    key = (th * (shape.w + 1) + tw) * (shape.c + 1) + tc
    _, first = np.unique(key, return_index=True)
    first.sort()
    return th[first], tw[first], tc[first]


def _feasible_grid(
    shape: ConvShape,
    device: DeviceSpec,
    spatial: Sequence[int],
    channel: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Candidate arrays masked down to feasible tilings."""
    th, tw, tc = candidate_grid(shape, spatial, channel)
    mask = is_feasible_batch(shape, device, th, tw, tc)
    if not np.any(mask):
        raise ValueError(
            f"no feasible TDC tiling for {shape} on {device.name}"
        )
    return th[mask], tw[mask], tc[mask]


def enumerate_tilings(
    shape: ConvShape,
    device: DeviceSpec,
    spatial: Sequence[int] = SPATIAL_TILES,
    channel: Sequence[int] = CHANNEL_TILES,
) -> List[Tiling]:
    """All feasible tiling candidates for a shape on a device."""
    th, tw, tc = _feasible_grid(shape, device, spatial, channel)
    return [
        Tiling(int(a), int(b), int(c)) for a, b, c in zip(th, tw, tc)
    ]


def enumerate_tilings_scalar(
    shape: ConvShape,
    device: DeviceSpec,
    spatial: Sequence[int] = SPATIAL_TILES,
    channel: Sequence[int] = CHANNEL_TILES,
) -> List[Tiling]:
    """Reference per-candidate enumeration (the original loop)."""
    seen = set()
    out: List[Tiling] = []
    for th in spatial:
        for tw in spatial:
            for tc in channel:
                t = Tiling(
                    th=min(th, shape.h), tw=min(tw, shape.w), tc=min(tc, shape.c)
                )
                key = (t.th, t.tw, t.tc)
                if key in seen:
                    continue
                seen.add(key)
                if is_feasible(t, shape, device):
                    out.append(t)
    if not out:
        raise ValueError(
            f"no feasible TDC tiling for {shape} on {device.name}"
        )
    return out


def _candidate_arrays(
    candidates: Sequence[Tiling],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw (unclipped) extent arrays of an explicit candidate list —
    tie-breaks compare the raw extents, exactly like the scalar path."""
    if len(candidates) == 0:
        raise ValueError("empty tiling candidate list")
    th = np.asarray([t.th for t in candidates], dtype=np.int64)
    tw = np.asarray([t.tw for t in candidates], dtype=np.int64)
    tc = np.asarray([t.tc for t in candidates], dtype=np.int64)
    return th, tw, tc


def _oracle_pick(
    shape: ConvShape,
    device: DeviceSpec,
    th: np.ndarray,
    tw: np.ndarray,
    tc: np.ndarray,
    totals: np.ndarray,
) -> TilingChoice:
    """Argmin by (latency, TH, TW, TC) over already-simulated totals."""
    order = np.lexsort((tc, tw, th, totals))
    i = int(order[0])
    t = Tiling(int(th[i]), int(tw[i]), int(tc[i]))
    return TilingChoice(
        tiling=t,
        simulated_latency=float(totals[i]),
        comp_latency=comp_latency(shape, t, device),
        memory_latency=memory_latency(shape, t, device),
        method="oracle",
    )


def select_tiling_oracle(
    shape: ConvShape,
    device: DeviceSpec,
    candidates: Optional[Sequence[Tiling]] = None,
) -> TilingChoice:
    """Exhaustive search by simulated latency (the 'oracle' path).

    The whole candidate grid goes through the batch simulator in one
    vectorized pass; winner and tie-breaks are bit-identical to
    :func:`select_tiling_oracle_scalar`.
    """
    if candidates is None:
        th, tw, tc = _feasible_grid(shape, device, SPATIAL_TILES, CHANNEL_TILES)
        pre_checked = True
    else:
        th, tw, tc = _candidate_arrays(candidates)
        pre_checked = False
    batch = tdc_launch_batch(shape, device, th, tw, tc, pre_checked=pre_checked)
    totals = simulate_kernels_batch(device, batch).total
    return _oracle_pick(shape, device, th, tw, tc, totals)


def select_tiling_oracle_scalar(
    shape: ConvShape,
    device: DeviceSpec,
    candidates: Optional[Sequence[Tiling]] = None,
) -> TilingChoice:
    """Reference per-candidate oracle loop (kept for equivalence tests)."""
    if candidates is None:
        candidates = enumerate_tilings_scalar(shape, device)
    best: Optional[Tuple[float, int, int, int]] = None
    for t in candidates:
        lat = TDCDirectKernel(t).latency(shape, device)
        key = (lat, t.th, t.tw, t.tc)
        if best is None or key < best:
            best = key
    assert best is not None
    lat, th, tw, tc = best
    t = Tiling(th, tw, tc)
    return TilingChoice(
        tiling=t,
        simulated_latency=lat,
        comp_latency=comp_latency(shape, t, device),
        memory_latency=memory_latency(shape, t, device),
        method="oracle",
    )


def _model_pick(
    shape: ConvShape,
    device: DeviceSpec,
    th: np.ndarray,
    tw: np.ndarray,
    tc: np.ndarray,
    frac: float,
) -> TilingChoice:
    """The Sec. 5.5 two-stage filter as array argsorts.

    Sort by (comp, mem, TH, TW, TC), keep the top fraction, then take
    the minimum by (mem, comp, TH, TW, TC) among the survivors — the
    same total order the scalar sorts use, so the winner is identical.
    """
    comp = comp_latency_batch(shape, device, th, tw, tc)
    mem = memory_latency_batch(shape, device, th, tw, tc)
    order = np.lexsort((tc, tw, th, mem, comp))
    keep = max(1, ceil(len(order) * frac))
    surv = order[:keep]
    sub = np.lexsort((tc[surv], tw[surv], th[surv], comp[surv], mem[surv]))
    i = int(surv[int(sub[0])])
    t = Tiling(int(th[i]), int(tw[i]), int(tc[i]))
    return TilingChoice(
        tiling=t,
        simulated_latency=TDCDirectKernel(t).latency(shape, device),
        comp_latency=float(comp[i]),
        memory_latency=float(mem[i]),
        method="model",
    )


def _check_top_fraction(device: DeviceSpec, top_fraction: Optional[float]) -> float:
    frac = device.model_top_fraction if top_fraction is None else top_fraction
    if not 0 < frac <= 1:
        raise ValueError(f"top_fraction must be in (0, 1], got {frac}")
    return frac


def select_tiling_model(
    shape: ConvShape,
    device: DeviceSpec,
    candidates: Optional[Sequence[Tiling]] = None,
    top_fraction: Optional[float] = None,
) -> TilingChoice:
    """Analytical selection (the 'model' path, Sec. 5.5).

    Sorts candidates by analytical compute latency, keeps the device's
    top fraction (5% A100 / 15% 2080Ti), then minimizes analytical
    memory latency among the survivors — all as vectorized Eq. 15/19
    over the candidate arrays, bit-identical to
    :func:`select_tiling_model_scalar`.
    """
    frac = _check_top_fraction(device, top_fraction)
    if candidates is None:
        th, tw, tc = _feasible_grid(shape, device, SPATIAL_TILES, CHANNEL_TILES)
    else:
        th, tw, tc = _candidate_arrays(candidates)
    return _model_pick(shape, device, th, tw, tc, frac)


def select_tiling_model_scalar(
    shape: ConvShape,
    device: DeviceSpec,
    candidates: Optional[Sequence[Tiling]] = None,
    top_fraction: Optional[float] = None,
) -> TilingChoice:
    """Reference per-candidate model loop (kept for equivalence tests)."""
    frac = _check_top_fraction(device, top_fraction)
    if candidates is None:
        candidates = enumerate_tilings_scalar(shape, device)
    scored = []
    for t in candidates:
        scored.append(
            (comp_latency(shape, t, device), memory_latency(shape, t, device), t)
        )
    scored.sort(key=lambda item: (item[0], item[1], item[2].th, item[2].tw, item[2].tc))
    keep = max(1, ceil(len(scored) * frac))
    survivors = scored[:keep]
    comp, mem, t = min(
        survivors, key=lambda item: (item[1], item[0], item[2].th, item[2].tw, item[2].tc)
    )
    return TilingChoice(
        tiling=t,
        simulated_latency=TDCDirectKernel(t).latency(shape, device),
        comp_latency=comp,
        memory_latency=mem,
        method="model",
    )


def select_tilings_grid(
    shapes: Sequence[ConvShape],
    device: DeviceSpec,
    method: str = "model",
    top_fraction: Optional[float] = None,
) -> List[TilingChoice]:
    """Batched selection for many shapes on one device.

    The performance-table path: all ``(D1, D2)`` core shapes of one
    layer sweep through here.  For the oracle, every shape's candidate
    grid is packed into **one** concatenated launch batch and a single
    :func:`simulate_kernels_batch` call evaluates the whole
    shapes-x-candidates grid; per-shape argmins then slice the result.
    The model path is array math per shape (no simulation sweep).
    Results match per-shape :func:`select_tiling_oracle` /
    :func:`select_tiling_model` exactly.
    """
    if method not in ("model", "oracle"):
        raise ValueError(f"unknown tiling selection method {method!r}")
    shapes = list(shapes)
    if not shapes:
        return []
    grids = [
        _feasible_grid(shape, device, SPATIAL_TILES, CHANNEL_TILES)
        for shape in shapes
    ]
    if method == "model":
        frac = _check_top_fraction(device, top_fraction)
        return [
            _model_pick(shape, device, th, tw, tc, frac)
            for shape, (th, tw, tc) in zip(shapes, grids)
        ]

    batches = [
        tdc_launch_batch(shape, device, th, tw, tc, pre_checked=True)
        for shape, (th, tw, tc) in zip(shapes, grids)
    ]
    totals = simulate_kernels_batch(
        device, LaunchBatch.concat(batches, name="tdc_grid")
    ).total
    choices: List[TilingChoice] = []
    offset = 0
    for shape, (th, tw, tc) in zip(shapes, grids):
        end = offset + len(th)
        choices.append(
            _oracle_pick(shape, device, th, tw, tc, totals[offset:end])
        )
        offset = end
    return choices


_SELECT_CACHE = PlanCache("tiling", maxsize=8192)


def tiling_cache() -> PlanCache:
    """The shared tiling-selection cache."""
    return _SELECT_CACHE


def select_key(shape: ConvShape, device: DeviceSpec, method: str) -> tuple:
    """Cache key for one selection: full shape identity plus the
    device's content fingerprint (never its display name)."""
    return shape.as_tuple() + (device.fingerprint(), method)


def select_tiling(
    shape: ConvShape, device: DeviceSpec, method: str = "model"
) -> TilingChoice:
    """Dispatch on selection method ('model' or 'oracle').

    Results are memoized per (shape, device-fingerprint, method): the
    five CNNs repeat core shapes heavily and both selectors are
    deterministic.  Two devices sharing a name but differing in any
    hardware parameter occupy distinct cache entries.
    """
    if method not in ("model", "oracle"):
        raise ValueError(f"unknown tiling selection method {method!r}")

    def build() -> TilingChoice:
        if method == "model":
            return select_tiling_model(shape, device)
        return select_tiling_oracle(shape, device)

    return _SELECT_CACHE.get_or_build(select_key(shape, device, method), build)


def select_tilings(
    shapes: Sequence[ConvShape], device: DeviceSpec, method: str = "model"
) -> List[TilingChoice]:
    """Cached batch front door: memoized per shape, misses computed
    through :func:`select_tilings_grid` in one vectorized pass."""
    if method not in ("model", "oracle"):
        raise ValueError(f"unknown tiling selection method {method!r}")
    shapes = list(shapes)
    keys = [select_key(shape, device, method) for shape in shapes]
    found = {}
    todo_keys: List[tuple] = []
    todo_seen = set()
    todo_shapes: List[ConvShape] = []
    for key, shape in zip(keys, shapes):
        if key in found or key in todo_seen:
            continue
        hit = _SELECT_CACHE.get(key)
        if hit is not None:
            found[key] = hit
        else:
            todo_keys.append(key)
            todo_seen.add(key)
            todo_shapes.append(shape)
    for key, choice in zip(
        todo_keys, select_tilings_grid(todo_shapes, device, method=method)
    ):
        found[key] = _SELECT_CACHE.put(key, choice)
    return [found[key] for key in keys]


def clear_tiling_cache() -> None:
    """Drop memoized tiling selections (used by tests/benchmarks)."""
    _SELECT_CACHE.clear()
