"""Parallel warm-up and batched planning over the plan caches.

The hot path of every experiment is table construction: one
performance table per unique layer shape per device, each of which
sweeps the full (D1, D2) rank grid through tiling selection.  Tables
are independent of each other, so warm-up fans them out over a
``concurrent.futures`` process pool and then seeds both the table
cache *and* the tiling cache (every table entry embodies one tiling
selection) in the parent — after which rank selection and execution
planning are pure cache hits.

:func:`plan_many` is the batched front door: the full
``specs x devices x budgets`` grid shares one warm-up (tables do not
depend on the budget), then runs Algorithm 1 per combination.  Plans
are keyed on the device *fingerprint*, not its display name — a
device sweep legitimately batches several same-named specs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.codesign.pipeline import layer_shapes_from_spec
from repro.codesign.rank_selection import LayerShape, RankPlan, select_ranks
from repro.codesign.table import (
    PerformanceTable,
    build_performance_table,
    table_cache,
    table_key,
)
from repro.gpusim.device import DeviceSpec
from repro.kernels.base import ConvShape
from repro.models.arch_specs import ModelSpec
from repro.perfmodel.analytical import comp_latency, memory_latency
from repro.perfmodel.tiling import (
    TilingChoice,
    seed_tiling_choice,
    select_key,
    select_tiling_model,
    select_tiling_oracle,
    select_tilings_grid,
    tiling_cache,
)
from repro.planning.pool import map_maybe_parallel

# (c, n, h, w, r, s) — one unique table request.
TableRequest = Tuple[int, int, int, int, int, int]

# Key of one batched plan: (spec fingerprint, device fingerprint,
# budget).  Fingerprints — not display names — so that a sweep over
# same-named device variants, or the same architecture at two image
# sizes, never collides.  Build keys with :func:`plan_key`.
PlanKey = Tuple[str, str, float]


@dataclass(frozen=True)
class WarmupStats:
    """What one warm-up pass did."""

    tables_built: int        # constructed this pass
    tables_cached: int       # already present, skipped
    tilings_seeded: int      # tiling-cache entries installed
    elapsed_seconds: float


def _unique_table_requests(
    layers: Iterable[LayerShape],
) -> List[TableRequest]:
    seen = set()
    out: List[TableRequest] = []
    for layer in layers:
        req = (layer.c, layer.n, layer.h, layer.w, layer.r, layer.s)
        if req not in seen:
            seen.add(req)
            out.append(req)
    return out


def _build_table_job(args: tuple) -> PerformanceTable:
    """Build one table without touching the (child-process) cache;
    module-level so a process pool can pickle it."""
    (c, n, h, w, r, s), device, rank_step, method = args
    return build_performance_table(
        c, n, h, w, device, r=r, s=s,
        rank_step=rank_step, method=method, use_cache=False,
    )


def seed_from_table(table: PerformanceTable, device: DeviceSpec) -> int:
    """Install a table and its per-entry tiling selections.

    Every table entry records the tiling chosen for its core shape, so
    a warm table also warms the tiling cache — ``select_tiling`` on
    any of the table's core shapes becomes a hit.  Returns the number
    of tiling entries seeded.
    """
    if table.device_fingerprint and (
        table.device_fingerprint != device.fingerprint()
    ):
        raise ValueError(
            f"table was built for a device fingerprinted "
            f"{table.device_fingerprint!r} ({table.device_name!r}); "
            f"refusing to seed it for {device.name!r} "
            f"({device.fingerprint()!r})"
        )
    if device.name != table.device_name:
        raise ValueError(
            f"device {device.name!r} does not match table built for "
            f"{table.device_name!r}"
        )
    table_cache().put(
        table_key(
            table.c, table.n, table.h, table.w, table.r, table.s,
            device, table.rank_step, table.method,
        ),
        table,
    )
    seeded = 0
    for e in table.entries:
        core = ConvShape(
            c=e.d1, n=e.d2, h=table.h, w=table.w, r=table.r, s=table.s
        )
        choice = TilingChoice(
            tiling=e.tiling,
            simulated_latency=e.core_latency,
            comp_latency=comp_latency(core, e.tiling, device),
            memory_latency=memory_latency(core, e.tiling, device),
            method=table.method,
        )
        seed_tiling_choice(core, device, choice)
        seeded += 1
    return seeded


def warm_tables(
    layers: Sequence[LayerShape],
    devices: Sequence[DeviceSpec],
    *,
    rank_step: int = 32,
    method: str = "model",
    workers: Optional[int] = None,
) -> WarmupStats:
    """Build every missing table for ``layers x devices``.

    With ``workers > 1`` the tables are built concurrently in a
    process pool (each table is an independent, pickle-friendly job);
    results are seeded into the parent's caches either way.  Cached
    tables still re-seed their tilings — the tiling cache may have
    been cleared (or its file invalidated) independently.
    """
    start = time.perf_counter()
    requests = _unique_table_requests(layers)
    jobs: List[Tuple[TableRequest, DeviceSpec]] = []
    cached = 0
    seeded = 0
    for device in devices:
        for req in requests:
            key = table_key(*req, device, rank_step, method)
            existing = table_cache().peek(key)
            if existing is not None:
                cached += 1
                seeded += seed_from_table(existing, device)
            else:
                jobs.append((req, device))

    job_args = [(req, dev, rank_step, method) for req, dev in jobs]
    tables = map_maybe_parallel(_build_table_job, job_args, workers)
    for (_, device), table in zip(jobs, tables):
        seeded += seed_from_table(table, device)
    return WarmupStats(
        tables_built=len(tables),
        tables_cached=cached,
        tilings_seeded=seeded,
        elapsed_seconds=time.perf_counter() - start,
    )


def _tiling_choice_job(args: tuple) -> TilingChoice:
    """Compute one tiling selection uncached (process-pool friendly).
    The selectors are batched internally, so each worker evaluates its
    candidate grid as one vectorized pass."""
    shape, device, method = args
    if method == "model":
        return select_tiling_model(shape, device)
    return select_tiling_oracle(shape, device)


def warm_tilings(
    shapes_devices: Sequence[Tuple[ConvShape, DeviceSpec]],
    *,
    method: str = "oracle",
    workers: Optional[int] = None,
) -> int:
    """Pre-select tilings for explicit (shape, device) pairs.

    Table warm-up only covers the configured selection method; the
    end-to-end harness also runs the *oracle* backend over the planned
    core shapes, whose exhaustive sweeps are the dominant cold cost.
    Serial warm-up packs each device's shapes through the batched grid
    selector (one concatenated simulator pass per device); with
    ``workers > 1`` the pairs fan out over a process pool instead,
    each worker running its own vectorized sweep.  Returns the number
    of selections computed (cached pairs skip).
    """
    if method not in ("model", "oracle"):
        raise ValueError(f"unknown tiling selection method {method!r}")
    todo: List[Tuple[ConvShape, DeviceSpec]] = []
    seen = set()
    for shape, device in shapes_devices:
        key = select_key(shape, device, method)
        if key in seen or tiling_cache().peek(key) is not None:
            continue
        seen.add(key)
        todo.append((shape, device))
    if workers is not None and workers > 1:
        choices = map_maybe_parallel(
            _tiling_choice_job,
            [(shape, device, method) for shape, device in todo],
            workers,
        )
        for (shape, device), choice in zip(todo, choices):
            seed_tiling_choice(shape, device, choice)
        return len(choices)

    # Serial: group by device and run one batched grid pass per group.
    groups: Dict[str, Tuple[DeviceSpec, List[ConvShape]]] = {}
    for shape, device in todo:
        fp = device.fingerprint()
        if fp not in groups:
            groups[fp] = (device, [])
        groups[fp][1].append(shape)
    computed = 0
    for device, shapes in groups.values():
        for shape, choice in zip(
            shapes, select_tilings_grid(shapes, device, method=method)
        ):
            seed_tiling_choice(shape, device, choice)
            computed += 1
    return computed


def warm_backends(
    shapes_devices: Sequence[Tuple[ConvShape, DeviceSpec]],
    backends: Sequence[str],
    *,
    workers: Optional[int] = None,
) -> Dict[str, int]:
    """Warm every requested kernel backend over (shape, device) pairs.

    Each name is validated against the registry; ``"auto"`` expands to
    *all* registered backends (auto dispatch evaluates every one of
    them per core shape, so its warm-up must too).  Warming delegates
    to each backend's ``warm`` hook: the TDC backends route through
    :func:`warm_tilings` (batched sweeps, optional process-pool
    fan-out), the rest batch per device.  Returns the number of
    evaluations per backend name.
    """
    from repro.backends import (
        AUTO_BACKEND,
        backend_names,
        get_backend,
        validate_backend,
    )

    names: List[str] = []
    for name in backends:
        validate_backend(name)
        expanded = backend_names() if name == AUTO_BACKEND else (name,)
        for expanded_name in expanded:
            if expanded_name not in names:
                names.append(expanded_name)
    return {
        name: get_backend(name).warm(shapes_devices, workers=workers)
        for name in names
    }


def warm_model_backends(
    model,
    device: DeviceSpec,
    image_hw: Tuple[int, int],
    *,
    in_channels: int = 3,
    backends: Sequence[str] = ("auto",),
    workers: Optional[int] = None,
    sites=None,
) -> Dict[str, int]:
    """Warm the kernel backends for a *trainable* model's Tucker cores.

    Planning dispatches every Tucker core on its shape at the output
    extent; this warms those shapes through :func:`warm_backends`, so a
    following ``plan_model`` (and every serving deployment) is pure
    cache hits.  Compilation consults no backend.  Dense-only models
    warm nothing and return an empty mapping.  ``sites`` takes a
    pre-traced inventory so one traced forward can feed warm-up,
    planning, and compilation.
    """
    from repro.models.introspection import trace_layer_sites
    from repro.nn.tucker_conv import TuckerConv2d

    if sites is None:
        sites = trace_layer_sites(model, image_hw, in_channels=in_channels)
    pairs: List[Tuple[ConvShape, DeviceSpec]] = []
    for site in sites:
        mod = site.module
        if not isinstance(mod, TuckerConv2d):
            continue
        k = mod.kernel_size
        oh, ow = mod.output_shape(site.height, site.width)
        pairs.append((
            ConvShape(c=mod.rank_in, n=mod.rank_out, h=oh, w=ow, r=k, s=k),
            device,
        ))
    if not pairs:
        return {}
    return warm_backends(pairs, backends, workers=workers)


def plan_key(spec: ModelSpec, device: DeviceSpec, budget: float) -> PlanKey:
    """The :func:`plan_many` result key for one combination."""
    return (spec.fingerprint(), device.fingerprint(), budget)


def plan_many(
    specs: Sequence[ModelSpec],
    devices: Sequence[DeviceSpec],
    budgets: Sequence[float],
    *,
    theta: float = 0.15,
    rank_step: int = 32,
    method: str = "model",
    workers: Optional[int] = None,
    min_channels: int = 32,
    formats: object = ("tucker",),
) -> Dict[PlanKey, RankPlan]:
    """Batched Algorithm 1 over the ``specs x devices x budgets`` grid.

    All combinations share one table warm-up (tables are independent
    of the budget), optionally parallelized over ``workers``
    processes.  ``formats`` widens rank selection beyond Tucker; the
    Tucker table warm-up still covers every combination (the CP/TT
    candidate sweeps are cheap closed-form latencies, cached
    per-process).  Returns ``{plan_key(spec, device, budget):
    RankPlan}`` — keys carry content *fingerprints*, never display
    names, so same-named device variants (a parameter sweep) or
    same-named spec variants (one architecture at two image sizes)
    each keep their own plan.
    """
    specs = list(specs)
    devices = list(devices)
    budgets = list(budgets)
    if not specs or not devices or not budgets:
        raise ValueError("plan_many needs at least one spec/device/budget")

    layer_map: Dict[str, List[LayerShape]] = {}
    for spec in specs:
        layers = layer_shapes_from_spec(spec, min_channels=min_channels)
        if not layers:
            raise ValueError(f"{spec.name} has no decomposable convs")
        layer_map[spec.fingerprint()] = layers

    all_layers = [l for layers in layer_map.values() for l in layers]
    warm_tables(
        all_layers, devices,
        rank_step=rank_step, method=method, workers=workers,
    )

    plans: Dict[PlanKey, RankPlan] = {}
    for spec in specs:
        for device in devices:
            for budget in budgets:
                plans[plan_key(spec, device, budget)] = select_ranks(
                    layer_map[spec.fingerprint()], device,
                    budget=budget, theta=theta,
                    rank_step=rank_step, method=method, formats=formats,
                )
    return plans
