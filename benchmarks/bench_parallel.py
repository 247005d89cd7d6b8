"""Parallel execution engine benchmark: the gate for the runtime.

For every preset (model, device) pair the decomposed model is compiled
three times — twice serial (``threads=1``, independently, to bound
measurement noise) and once parallel (``threads=4``) — and measured at
batch 1 (too small to shard: the serial body) and batch 16 (batch
shards).

Gates, all enforced with a non-zero exit:

1. **Exactness** — every parallel output matches serial bit for bit:
   the maximum deviation must be exactly 0.0 at every batch size.
2. **Perf** — parallel beats serial by >= 1.5x at batch 16 on at
   least two supported pairs (full mode); in ``--quick`` mode parallel
   must simply never lose to serial at batch 16.
3. **Serial parity** — the two independent ``threads=1`` compiles
   measure within noise of each other (the parallel engine must not
   tax the serial path).

Results are written to ``BENCH_parallel.json``.

Run:  PYTHONPATH=src python benchmarks/bench_parallel.py [--quick]
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

PAIRS = (
    ("resnet_tiny", "A100"),
    ("vgg_tiny", "A100"),
    ("resnet_tiny", "2080Ti"),
    ("vgg_tiny", "2080Ti"),
)
QUICK_PAIRS = (
    ("resnet_tiny", "A100"),
    ("vgg_tiny", "A100"),
)
IMAGE_HW = (32, 32)
BATCHES = (1, 16)
THREADS = 4
MIN_SPEEDUP = 1.5
#: Generous wall-clock ratio bounds for the two serial compiles.
SERIAL_NOISE = (0.5, 2.0)


def bench_pair(model_name: str, device_name: str,
               repeats: int, warmup: int) -> dict:
    device = get_device(device_name)
    model = build_model(model_name, seed=0)
    try:
        decompose_for_device(
            model, device, IMAGE_HW, budget=0.5, rank_step=2, theta=0.0,
        )
    except ValueError as exc:
        return {"supported": False, "reason": str(exc)[:120]}
    model.eval()

    kwargs = dict(image_hw=IMAGE_HW, max_batch=max(BATCHES),
                  model_name=model_name)
    serial = compile_model(model, device, threads=1, **kwargs)
    serial_b = compile_model(model, device, threads=1, **kwargs)
    par = compile_model(model, device, threads=THREADS, **kwargs)

    rng = np.random.default_rng(0)
    batches = {}
    for n in BATCHES:
        x = rng.standard_normal((n, 3) + IMAGE_HW).astype(serial.dtype)
        y_serial = serial.run(x).copy()
        y_par = par.run(x).copy()
        max_dev = float(np.max(np.abs(y_serial - y_par)))
        t_serial = serial.measure(x, repeats=repeats, warmup=warmup)
        t_serial_b = serial_b.measure(x, repeats=repeats, warmup=warmup)
        t_par = par.measure(x, repeats=repeats, warmup=warmup)
        batches[str(n)] = {
            "serial_ms": t_serial * 1e3,
            "serial_b_ms": t_serial_b * 1e3,
            "parallel_ms": t_par * 1e3,
            "speedup": t_serial / t_par,
            "serial_ratio": t_serial_b / t_serial,
            "max_deviation": max_dev,
            "identical": bool(np.array_equal(y_serial, y_par)),
        }
    rep = par.parallel_report()
    return {
        "supported": True,
        "threads": THREADS,
        "parallel_sites": rep["parallel_sites"],
        "serial_sites": rep["serial_sites"],
        "batches": batches,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true",
                    help="A100 pairs only, fewer repeats (CI smoke); the "
                         "perf gate relaxes to 'never slower than serial'")
    ap.add_argument("--out", default="BENCH_parallel.json")
    args = ap.parse_args(argv)

    pairs = QUICK_PAIRS if args.quick else PAIRS
    repeats = 2 if args.quick else 3
    warmup = 1

    results = {}
    failures = []
    fast_pairs = 0
    for model_name, device_name in pairs:
        key = f"{model_name}@{device_name}"
        print(f"[bench_parallel] {key} ...", flush=True)
        res = bench_pair(model_name, device_name, repeats, warmup)
        results[key] = res
        if not res["supported"]:
            print(f"  unsupported: {res['reason']}")
            continue
        if res["parallel_sites"] < 1:
            failures.append(f"{key}: no site went parallel at "
                            f"threads={THREADS}")
        for n, row in res["batches"].items():
            print(f"  batch {n}: serial {row['serial_ms']:.1f} ms, "
                  f"parallel {row['parallel_ms']:.1f} ms "
                  f"({row['speedup']:.2f}x), max dev "
                  f"{row['max_deviation']}")
            if row["max_deviation"] != 0.0 or not row["identical"]:
                failures.append(
                    f"{key} batch {n}: parallel deviates from serial "
                    f"(max {row['max_deviation']})"
                )
            lo, hi = SERIAL_NOISE
            if not lo <= row["serial_ratio"] <= hi:
                failures.append(
                    f"{key} batch {n}: independent serial compiles "
                    f"disagree ({row['serial_ratio']:.2f}x) — threads=1 "
                    f"no longer matches the single-thread path"
                )
        big = res["batches"][str(max(BATCHES))]
        if big["speedup"] >= MIN_SPEEDUP:
            fast_pairs += 1
        if args.quick and big["speedup"] < 1.0:
            failures.append(
                f"{key}: parallel slower than serial at batch "
                f"{max(BATCHES)} ({big['speedup']:.2f}x)"
            )
    if not args.quick and fast_pairs < 2:
        failures.append(
            f"only {fast_pairs} pair(s) reached {MIN_SPEEDUP}x at batch "
            f"{max(BATCHES)}; need >= 2"
        )

    payload = {
        "image_hw": IMAGE_HW,
        "threads": THREADS,
        "batches": BATCHES,
        "quick": args.quick,
        "results": results,
        "fast_pairs": fast_pairs,
        "failures": failures,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"[bench_parallel] wrote {args.out}")
    if failures:
        print("[bench_parallel] FAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"[bench_parallel] all gates passed "
          f"({fast_pairs} pair(s) >= {MIN_SPEEDUP}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
