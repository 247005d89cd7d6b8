"""Fused backend benchmark: the gate for the ``fused`` backend.

For every (model, device, format) combination the decomposed preset is
compiled with ``core_backend="fused"``: every factored site is planned
on the fused backend and runs its format's stage list (the host
lowering is the same for every backend).

Two gates, both enforced with a non-zero exit:

1. **Numerics** — every fused-planned executable matches
   ``Module.forward`` to 1e-9 max deviation.
2. **Adoption** — plain ``auto`` dispatch (fused registered, no
   fused-specific planner plumbing) selects the fused backend for at
   least one preset site.

Results are written to ``BENCH_fused.json``.

Run:  PYTHONPATH=src python benchmarks/bench_fused.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.codesign.pipeline import decompose_for_device
from repro.gpusim.device import get_device
from repro.inference.executable import compile_model
from repro.models.registry import build_model
from repro.tensor.formats import FACTORED_FORMATS

MODELS = ("resnet_tiny", "vgg_tiny", "resnet20_slim")
QUICK_MODELS = ("resnet_tiny", "vgg_tiny")
DEVICES = ("A100", "2080Ti")
QUICK_DEVICES = ("A100",)
#: (model, device) pairs probed for organic auto adoption — geometries
#: where intermediate traffic dominates, so plain dispatch flips.
AUTO_PROBES = (("vgg16_slim", "2080Ti"), ("resnet50_slim", "2080Ti"))
IMAGE_HW = (32, 32)
BATCH = 4
TOL = 1e-9


def bench_combo(model_name: str, device_name: str, fmt: str) -> dict:
    device = get_device(device_name)
    model = build_model(model_name, seed=0)
    try:
        decompose_for_device(
            model, device, IMAGE_HW, budget=0.5, rank_step=2,
            theta=0.0, formats=(fmt,),
        )
    except ValueError as exc:
        return {"supported": False, "reason": str(exc)[:120]}
    model.eval()
    x = np.random.default_rng(0).standard_normal((BATCH, 3) + IMAGE_HW)
    ref = model.forward(x)
    fused_exe = compile_model(
        model, device, image_hw=IMAGE_HW, core_backend="fused",
        max_batch=BATCH,
    )
    return {
        "supported": True,
        "max_deviation": float(np.max(np.abs(fused_exe.run(x) - ref))),
        "backends": fused_exe.backend_counts(),
        "arena_bytes": fused_exe.arena_report()["arena_bytes"],
    }


def probe_auto_adoption() -> dict:
    """Plan presets under plain ``auto`` and count fused wins."""
    out = {}
    for model_name, device_name in AUTO_PROBES:
        device = get_device(device_name)
        model = build_model(model_name, seed=0)
        try:
            decompose_for_device(
                model, device, IMAGE_HW, budget=0.5, rank_step=2,
                theta=0.0,
            )
        except ValueError:
            continue
        exe = compile_model(
            model.eval(), device, image_hw=IMAGE_HW,
            core_backend="auto", max_batch=1,
        )
        counts = exe.backend_counts()
        out[f"{model_name}/{device_name}"] = counts
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="small model/device subset")
    ap.add_argument("--out", default="BENCH_fused.json")
    args = ap.parse_args(argv)

    models = QUICK_MODELS if args.quick else MODELS
    devices = QUICK_DEVICES if args.quick else DEVICES

    results, failures = {}, []
    for model_name in models:
        for device_name in devices:
            for fmt in FACTORED_FORMATS:
                key = f"{model_name}/{device_name}/{fmt}"
                rec = bench_combo(model_name, device_name, fmt)
                results[key] = rec
                if not rec["supported"]:
                    print(f"{key:36s} SKIP ({rec['reason'][:48]})")
                    continue
                print(f"{key:36s} dev {rec['max_deviation']:.1e}"
                      f"  {rec['backends']}")
                if rec["max_deviation"] > TOL:
                    failures.append(
                        f"{key}: deviation {rec['max_deviation']:.3e} > {TOL}"
                    )

    adoption = probe_auto_adoption()
    fused_wins = sum(c.get("fused", 0) for c in adoption.values())
    for probe, counts in adoption.items():
        print(f"auto adoption {probe}: {counts}")
    if fused_wins == 0:
        failures.append(
            "auto dispatch never selected the fused backend on the "
            f"adoption probes {list(adoption)}"
        )

    payload = {
        "quick": args.quick,
        "image_hw": IMAGE_HW,
        "batch": BATCH,
        "tolerance": TOL,
        "results": results,
        "auto_adoption": adoption,
        "auto_fused_wins": fused_wins,
        "failures": failures,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(f"wrote {args.out}")

    if failures:
        for f in failures:
            print(f"GATE FAILURE: {f}", file=sys.stderr)
        return 1
    print(f"all gates passed: numerics within {TOL}, auto adoption "
          f"{fused_wins} site(s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
