"""Ablations of the reproduction's design choices.

1. **CRSN kernel layout** (Sec. 5.2): latency of the TDC kernel with
   coalesced CRSN vs naive NCRS kernel loads.
2. **θ-threshold rule** (Sec. 6): end-to-end latency of a rank plan
   with θ=0.15 vs θ=0 (decompose everything profitable-looking).
3. **Model top-fraction** (Sec. 5.5): quality of the analytical tiling
   selection as the kept fraction sweeps.
4. **C-split** (Sec. 5.1/5.2): the TDC scheme restricted to TC=C
   (no input-channel split), quantifying the parallelism the split
   contributes on small shapes.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.backends import validate_backend
from repro.codesign.pipeline import layer_shapes_from_spec
from repro.codesign.rank_selection import select_ranks
from repro.gpusim.device import DeviceSpec
from repro.inference.plan import plan_tucker_model
from repro.kernels.base import ConvShape
from repro.kernels.tdc_direct import TDCDirectKernel, Tiling, is_feasible
from repro.models.arch_specs import PAPER_CONV_SHAPES, get_model_spec
from repro.perfmodel.tiling import (
    enumerate_tilings,
    select_tiling,
    select_tiling_model,
    select_tiling_oracle,
)
from repro.utils.tables import Table


def crsn_layout_ablation(
    device: DeviceSpec,
    shapes: Sequence[Tuple[int, int, int, int]] = tuple(PAPER_CONV_SHAPES),
) -> Table:
    """CRSN (coalesced) vs NCRS (strided) kernel-tensor layout."""
    table = Table(
        ["shape", "CRSN (ms)", "NCRS (ms)", "NCRS penalty"],
        title=f"Ablation: kernel-tensor layout ({device.name})",
    )
    ratios = []
    for (c, n, h, w) in shapes:
        shape = ConvShape(c=c, n=n, h=h, w=w)
        tiling = select_tiling(shape, device, "oracle").tiling
        crsn = TDCDirectKernel(tiling, crsn_layout=True).latency(shape, device)
        ncrs = TDCDirectKernel(tiling, crsn_layout=False).latency(shape, device)
        ratios.append(ncrs / crsn)
        table.add_row([str(shape), crsn * 1e3, ncrs * 1e3, f"{ncrs / crsn:.2f}x"])
    table.add_row(["MEAN", "", "", f"{float(np.mean(ratios)):.2f}x"])
    return table


def theta_rule_ablation(
    device: DeviceSpec,
    model: str = "densenet121",
    budget: float = 0.1,
    core_backend: str = "tdc-model",
) -> Table:
    """End-to-end latency with and without the θ skip rule.

    ``core_backend`` is any registered backend name (or ``"auto"``);
    it is validated up front so a typo fails before rank selection.
    """
    validate_backend(core_backend)
    spec = get_model_spec(model)
    layers = layer_shapes_from_spec(spec)
    table = Table(
        ["theta", "decomposed layers", "e2e latency (ms)"],
        title=f"Ablation: θ-threshold rule on {model} "
              f"({device.name}, {core_backend})",
    )
    for theta in (0.0, 0.15):
        plan = select_ranks(layers, device, budget=budget, theta=theta)
        latency = plan_tucker_model(
            spec, plan, device, core_backend=core_backend
        ).total_latency()
        n_dec = sum(1 for d in plan.decisions if d.decomposed)
        table.add_row([f"{theta:.2f}", f"{n_dec}/{len(plan.decisions)}",
                       latency * 1e3])
    return table


def top_fraction_ablation(
    device: DeviceSpec,
    fractions: Sequence[float] = (0.01, 0.05, 0.15, 0.40, 1.0),
    shapes: Sequence[Tuple[int, int, int, int]] = tuple(PAPER_CONV_SHAPES),
) -> Table:
    """Model-selection quality vs the kept candidate fraction."""
    table = Table(
        ["top fraction", "mean model/oracle"],
        title=f"Ablation: analytical-model top fraction ({device.name})",
    )
    oracle = {
        s: select_tiling(ConvShape(*s), device, "oracle").simulated_latency
        for s in shapes
    }
    for frac in fractions:
        gaps = []
        for s in shapes:
            shape = ConvShape(*s)
            choice = select_tiling_model(shape, device, top_fraction=frac)
            gaps.append(choice.simulated_latency / oracle[s])
        table.add_row([f"{frac:.0%}", f"{float(np.mean(gaps)):.2f}x"])
    return table


def c_split_ablation(
    device: DeviceSpec,
    shapes: Sequence[Tuple[int, int, int, int]] = tuple(PAPER_CONV_SHAPES),
) -> Table:
    """TDC with vs without the input-channel (C) split.

    'Without' restricts candidates to TC = C, i.e. one block per (H, W)
    tile — the restriction the paper criticizes in TVM's scheme.
    """
    table = Table(
        ["shape", "with C-split (ms)", "TC=C only (ms)", "penalty"],
        title=f"Ablation: input-channel split ({device.name})",
    )
    ratios = []
    for (c, n, h, w) in shapes:
        shape = ConvShape(c=c, n=n, h=h, w=w)
        best = select_tiling(shape, device, "oracle").simulated_latency
        no_split_cands = [
            t for t in enumerate_tilings(shape, device) if t.tc >= shape.c
        ]
        if not no_split_cands:
            continue
        no_split = min(
            TDCDirectKernel(t).latency(shape, device) for t in no_split_cands
        )
        ratios.append(no_split / best)
        table.add_row([
            str(shape), best * 1e3, no_split * 1e3, f"{no_split / best:.2f}x",
        ])
    table.add_row(["MEAN", "", "", f"{float(np.mean(ratios)):.2f}x"])
    return table
