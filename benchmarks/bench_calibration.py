"""Calibration benchmark: measured vs simulated per pair, session soak.

Two gates, both hard failures (exit non-zero):

1. **Coverage**: for every preset (device, model) pair,
   :func:`~repro.calibration.run_calibration` must measure every core
   stage — one sample per planned core, dense conv or depthwise
   middle, whichever backend won it, each with positive simulated and
   host seconds.  The simulated plan
   total and the measured host time are printed side by side; they
   time different hardware, so no bound is put on their ratio.
2. **Session memory**: a 10k-request soak (2k in ``--quick``) through
   an :class:`~repro.serving.InferenceSession` must keep the latency
   window at its bounded capacity and must not grow traced Python
   allocations beyond a small constant — the regression this guards
   against is the old unbounded ``_latencies`` history.

Wall-clock numbers are informational (shared runners flake); the gates
above are structural/numeric and deterministic enough for CI.

Run:  PYTHONPATH=src python benchmarks/bench_calibration.py [--quick]
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
import tracemalloc

import numpy as np

from repro.calibration import CORE_KINDS, run_calibration
from repro.codesign.pipeline import decompose_for_device
from repro.gpusim.device import get_device
from repro.inference.executable import compile_model
from repro.models.registry import build_model
from repro.serving import InferenceSession

MODELS = ("resnet_tiny", "vgg_tiny")
DEVICES = ("A100", "2080Ti")
IMAGE_HW = (8, 8)
#: Traced-allocation growth allowed across the soak.  An unbounded
#: latency history alone grows ~80 B/request (0.8 MB per 10k); real
#: leaks (arena churn) blow far past this.
SOAK_GROWTH_LIMIT_BYTES = 2 * 1024 * 1024


def core_sites(plan) -> set:
    """Sites with a core stage: every planned core, dense conv and
    depthwise middle."""
    return {
        k.layer.removesuffix(".core") for k in plan.kernels
        if k.kind in CORE_KINDS
    }


def bench_pair(device, model_name: str, repeats: int) -> dict:
    model = build_model(model_name, seed=0)
    try:
        decompose_for_device(
            model, device, IMAGE_HW, budget=0.5, rank_step=2
        )
    except ValueError:
        pass  # θ rule decomposed nothing: measure the dense model
    model.eval()
    exe = compile_model(
        model, device, image_hw=IMAGE_HW, core_backend="auto",
        max_batch=1, model_name=model_name,
    )
    t0 = time.perf_counter()
    run = run_calibration(exe, warmup=1, repeats=repeats)
    calibrate_wall = time.perf_counter() - t0
    print(f"    {model_name:>12s} on {device.name:>6s}  "
          f"{len(run.samples):2d} cores  "
          f"simulated {run.total_predicted_s * 1e3:7.3f} ms  "
          f"measured {run.total_measured_s * 1e3:7.3f} ms  "
          f"(cores {run.core_predicted_s * 1e3:.3f} -> "
          f"{run.core_measured_s * 1e3:.3f} ms)")
    expected = core_sites(exe.plan)
    measured = [s.site for s in run.samples]
    if sorted(measured) != sorted(expected):
        print(f"FAIL: {model_name} on {device.name} measured cores "
              f"{sorted(measured)}, the plan's core stages are "
              f"{sorted(expected)}")
        sys.exit(1)
    bad = [s.site for s in run.samples
           if not (s.predicted_s > 0 and s.measured_s > 0)]
    if bad or not run.total_measured_s > 0:
        print(f"FAIL: {model_name} on {device.name} has non-positive "
              f"simulated or host seconds at {bad or 'the whole run'}")
        sys.exit(1)
    return {
        "simulated_s": run.total_predicted_s,
        "measured_s": run.total_measured_s,
        "core_simulated_s": run.core_predicted_s,
        "core_measured_s": run.core_measured_s,
        "calibrate_wall_s": calibrate_wall,
        "sites_measured": len(run.samples),
    }


def bench_soak(device, n_requests: int) -> dict:
    model = build_model("resnet_tiny", seed=0)
    try:
        decompose_for_device(
            model, device, IMAGE_HW, budget=0.5, rank_step=2
        )
    except ValueError:
        pass
    model.eval()
    exe = compile_model(
        model, device, image_hw=IMAGE_HW, core_backend="auto",
        max_batch=8, model_name="resnet_tiny",
    )
    rng = np.random.default_rng(2)
    xs = rng.standard_normal((64, 3) + IMAGE_HW)
    with InferenceSession(exe) as session:
        warm = min(256, n_requests // 10)
        for i in range(warm):  # reach steady state before measuring
            session.infer(xs[i % 64], timeout=60.0)
        gc.collect()
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        t0 = time.perf_counter()
        for i in range(n_requests):
            session.infer(xs[i % 64], timeout=60.0)
        wall = time.perf_counter() - t0
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        stats = session.stats()
        window_len = len(session._latencies)
        window_cap = session._latencies.capacity
    growth = after - before
    print(f"    soak: {n_requests} requests in {wall:.1f} s "
          f"({n_requests / wall:.0f} req/s), window {window_len}/"
          f"{window_cap}, traced growth {growth / 1024:.0f} kB, "
          f"p95 {stats.p95_latency_s * 1e3:.2f} ms")
    if window_len > window_cap:
        print(f"FAIL: latency window exceeded its capacity "
              f"({window_len} > {window_cap})")
        sys.exit(1)
    if stats.requests < n_requests:
        print(f"FAIL: soak dropped requests ({stats.requests} < "
              f"{n_requests})")
        sys.exit(1)
    if growth > SOAK_GROWTH_LIMIT_BYTES:
        print(f"FAIL: session memory grew {growth / 1e6:.1f} MB across "
              f"the soak (limit {SOAK_GROWTH_LIMIT_BYTES / 1e6:.1f} MB) "
              f"— unbounded per-request state is back")
        sys.exit(1)
    return {
        "requests": n_requests,
        "wall_s": wall,
        "throughput_rps": n_requests / wall,
        "latency_window": window_len,
        "latency_window_capacity": window_cap,
        "traced_growth_bytes": growth,
        "p95_latency_s": stats.p95_latency_s,
        "mean_latency_s": stats.mean_latency_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer repeats, 2k-request soak")
    args = parser.parse_args()

    repeats = 3 if args.quick else 5
    soak_requests = 2_000 if args.quick else 10_000

    print(f"calibration benchmark "
          f"({'quick' if args.quick else 'full'})")
    print("  measured vs simulated, every core stage:")
    pairs = {}
    for device_name in DEVICES:
        device = get_device(device_name)
        for model_name in MODELS:
            pairs[f"{model_name}@{device_name}"] = bench_pair(
                device, model_name, repeats
            )

    print("  session soak (bounded stats / no memory growth):")
    soak = bench_soak(get_device("A100"), soak_requests)

    out = {
        "quick": args.quick,
        "image_hw": list(IMAGE_HW),
        "pairs": pairs,
        "soak": soak,
    }
    path = ("BENCH_calibration.quick.json" if args.quick
            else "BENCH_calibration.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
