"""Figures 8 and 9: end-to-end inference latency of the five CNNs.

For each model: original network via cuDNN, then the TKD-compressed
network under every requested core backend — by default the paper's
four (cuDNN, TVM, TDC-ORACLE, TDC-MODEL), all under the hardware-aware
rank plan for the target device and the paper's per-model budgets.
Any registered backend name (or ``"auto"``) extends the table with an
extra bar; ``auto``'s per-layer dispatch decisions are summarized by
:func:`auto_dispatch_summary`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.common import E2E_MODELS, MODEL_BUDGETS
from repro.gpusim.device import DeviceSpec
from repro.inference.engine import E2EResult, ORIGINAL_VARIANT, estimate_e2e
from repro.models.arch_specs import get_model_spec
from repro.utils.tables import Table

# The paper's figures are device-bound; custom DeviceSpecs fall back to
# a generic title instead of silently claiming to be Figure 8 or 9.
DEVICE_FIGURES: Dict[str, str] = {"A100": "Figure 8", "2080Ti": "Figure 9"}

# Column spellings for the known variants; unknown ones upper-case.
DISPLAY_NAMES: Dict[str, str] = {
    "cudnn": "cuDNN",
    "tvm": "TVM",
    "tdc-oracle": "TDC-ORACLE",
    "tdc-model": "TDC-MODEL",
    "cudnn-winograd": "WINOGRAD",
    "cudnn-fft": "FFT",
    "auto": "AUTO",
}


def display_name(variant: str) -> str:
    return DISPLAY_NAMES.get(variant, variant.upper())


def figure_title(device: DeviceSpec) -> str:
    """The table title: paper figure when the device maps to one."""
    figure = DEVICE_FIGURES.get(device.name)
    base = f"end-to-end inference latency ({device.name})"
    return f"{figure}: {base}" if figure else base[0].upper() + base[1:]


def run_models(
    device: DeviceSpec,
    models: Optional[List[str]] = None,
    budgets: Optional[Dict[str, float]] = None,
    backends: Optional[Sequence[str]] = None,
    formats: object = ("tucker",),
) -> Dict[str, E2EResult]:
    """End-to-end estimates for the requested models on one device.

    ``formats`` widens rank selection beyond Tucker (``"all"`` or an
    explicit list); sites then individually pick the fastest format
    under their budget share.
    """
    models = list(models) if models is not None else list(E2E_MODELS)
    budgets = budgets or MODEL_BUDGETS
    results: Dict[str, E2EResult] = {}
    for name in models:
        spec = get_model_spec(name)
        results[name] = estimate_e2e(
            spec, device, budget=budgets.get(name, 0.6), backends=backends,
            formats=formats,
        )
    return results


def results_table(results: Dict[str, E2EResult], device: DeviceSpec) -> Table:
    """Render e2e results with one latency column per variant.

    Speedup columns adapt to what was estimated: the reference variant
    is ``tdc-oracle`` when present (the paper's headline bar, and the
    legacy column spelling), otherwise the fastest requested variant —
    named in the column header so the quoted factor is unambiguous.
    The cuDNN/TVM baselines are reported only when part of the run.
    """
    if not results:
        raise ValueError("no e2e results to tabulate")
    first = next(iter(results.values()))
    variants = list(first.backend_variants())
    if "tdc-oracle" in variants:
        reference, ref_suffix = "tdc-oracle", ""
    else:
        reference = min(variants, key=first.latency)
        ref_suffix = f" (TK-{display_name(reference)})"
    baselines = [v for v in ("cudnn", "tvm") if v in variants]

    columns = ["model", "original (ms)"]
    columns += [f"TK-{display_name(v)} (ms)" for v in variants]
    columns += [f"speedup vs orig{ref_suffix}"]
    columns += [f"vs TK-{display_name(b)}{ref_suffix}" for b in baselines]
    table = Table(columns, title=figure_title(device))
    for name, res in results.items():
        row: List[object] = [name, res.latency(ORIGINAL_VARIANT) * 1e3]
        row += [res.latency(v) * 1e3 for v in variants]
        row += [f"{res.speedup_over_original(reference):.2f}x"]
        row += [f"{res.speedup(b, reference):.2f}x" for b in baselines]
        table.add_row(row)
    return table


def auto_dispatch_summary(
    results: Dict[str, E2EResult], device: DeviceSpec
) -> Optional[Table]:
    """Per-model summary of which backends ``auto`` picked per layer.

    Returns ``None`` when no result carries an ``auto`` plan.
    """
    rows = []
    for name, res in results.items():
        plan = res.plans.get("auto")
        if plan is None:
            continue
        counts = plan.backend_counts()
        picks = ", ".join(f"{b} x{n}" for b, n in counts.items())
        rows.append([name, sum(counts.values()), picks or "-"])
    if not rows:
        return None
    table = Table(
        ["model", "core convs", "auto per-layer backend choices"],
        title=f"Auto dispatch decisions ({device.name})",
    )
    for row in rows:
        table.add_row(row)
    return table


def run(
    device: DeviceSpec,
    models: Optional[List[str]] = None,
    backends: Optional[Sequence[str]] = None,
    formats: object = ("tucker",),
) -> Table:
    """Regenerate Fig. 8 (A100) / Fig. 9 (2080Ti) as a table."""
    return results_table(
        run_models(device, models=models, backends=backends, formats=formats),
        device,
    )


def format_summary(
    results: Dict[str, E2EResult], device: DeviceSpec
) -> Optional[Table]:
    """Per-model summary of which decomposition format won each site.

    Returns ``None`` when every plan is single-format Tucker (the
    default ``formats`` setting, where the column adds no signal).
    """
    rows = []
    saw_non_tucker = False
    for name, res in results.items():
        counts: Dict[str, int] = {}
        for d in res.rank_plan.decisions:
            if d.decomposed:
                counts[d.format] = counts.get(d.format, 0) + 1
        saw_non_tucker = saw_non_tucker or any(
            f != "tucker" for f in counts
        )
        picks = ", ".join(f"{f} x{n}" for f, n in sorted(counts.items()))
        rows.append([name, sum(counts.values()), picks or "-"])
    if not saw_non_tucker:
        return None
    table = Table(
        ["model", "decomposed convs", "format wins per site"],
        title=f"Decomposition format decisions ({device.name})",
    )
    for row in rows:
        table.add_row(row)
    return table


# Trainable presets small enough to *execute* on CPU; the measured
# column times real numeric forwards through the compiled kernels.
MEASURED_MODELS = ("resnet_tiny", "vgg_tiny")


def measured_vs_predicted(
    device: DeviceSpec,
    models: Sequence[str] = MEASURED_MODELS,
    backends: Optional[Sequence[str]] = None,
    image_hw: tuple = (8, 8),
    batch: int = 1,
    repeats: int = 3,
    budget: float = 0.5,
    rank_step: int = 2,
) -> Table:
    """Compiled-execution wall time vs the plan's simulated latency.

    For each trainable model preset: hardware-aware decomposition for
    the device, then one compiled :class:`~repro.inference.Executable`
    per requested core backend.  "Predicted" is the plan's simulated
    GPU latency; "measured" is CPU NumPy wall time of ``run`` — the
    two run different hardware, so the interesting signal is how the
    *ratios between variants* track, plus a regression canary for the
    hot path.  Backends that cannot compile a model's cores are
    skipped with a dash.
    """
    from repro.backends import PAPER_CORE_BACKENDS
    from repro.codesign.pipeline import decompose_for_device
    from repro.inference.executable import compile_model
    from repro.models.registry import build_model

    backends = tuple(backends) if backends is not None else PAPER_CORE_BACKENDS
    rng = np.random.default_rng(0)
    table = Table(
        ["model", "variant", "core convs", "predicted (ms)",
         "measured (ms)", "arena (kB)"],
        title=f"Compiled execution: measured vs predicted ({device.name})",
    )
    for name in models:
        model = build_model(name, seed=0)
        try:
            decompose_for_device(
                model, device, image_hw, budget=budget, rank_step=rank_step,
            )
        except ValueError:
            pass  # θ rule / budget decomposed nothing: measure dense
        model.eval()
        x = rng.standard_normal((batch, 3) + tuple(image_hw))
        for backend in backends:
            try:
                exe = compile_model(
                    model, device, image_hw=image_hw,
                    core_backend=backend, max_batch=batch, model_name=name,
                )
            except (ValueError, NotImplementedError):
                table.add_row([name, display_name(backend), "-", "-", "-", "-"])
                continue
            wall = exe.measure(x, repeats=repeats)
            table.add_row([
                name,
                display_name(backend),
                sum(exe.backend_counts().values()),
                exe.predicted_latency() * 1e3,
                wall * 1e3 / batch,
                exe.arena.nbytes / 1e3,
            ])
    return table
