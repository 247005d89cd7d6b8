"""Serving benchmark: compile cost, hot-path latency, micro-batching.

Three quantities for one tiny trainable model per core backend:

1. **Cold compile wall**: ``plan_model`` + ``compile_plan`` from a cold
   start (the cost the serving registry pays once per deployment).
2. **Steady-state per-request latency**: best-of-N wall time of
   ``Executable.run`` on a warm arena, plus an allocator audit — the
   run must make zero ``np.zeros``/``np.empty``/``np.pad`` calls
   (arena reuse is the whole point of the compile/execute split).
3. **Micro-batching throughput vs batch size**: synthetic client
   traffic through an :class:`~repro.serving.InferenceSession` at
   several ``max_batch`` settings.

The script *always* verifies ``Executable.run`` against
``Module.forward`` and exits non-zero on a numeric mismatch or on a
hot-path allocation — that is what the CI smoke job (``--quick``)
checks.  Wall-clock numbers are informational (shared runners flake).

Run:  PYTHONPATH=src python benchmarks/bench_serving.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

import numpy as np

from repro.backends import backend_names
from repro.codesign.pipeline import decompose_for_device
from repro.gpusim.device import get_device
from repro.inference.executable import compile_model
from repro.inference.plan import plan_model
from repro.models.registry import build_model
from repro.serving import InferenceSession

MODEL = "resnet_tiny"
IMAGE_HW = (8, 8)
BATCH_SIZES = (1, 2, 4, 8)
ALLOC_NAMES = ("zeros", "empty", "pad", "zeros_like", "empty_like", "full")


def count_allocations(fn) -> dict:
    """Run ``fn`` with the named numpy allocators instrumented."""
    counts = {name: 0 for name in ALLOC_NAMES}
    originals = {name: getattr(np, name) for name in ALLOC_NAMES}

    def wrap(name):
        def counted(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)
        return counted

    for name in ALLOC_NAMES:
        setattr(np, name, wrap(name))
    try:
        fn()
    finally:
        for name, orig in originals.items():
            setattr(np, name, orig)
    return counts


def make_model(device):
    model = build_model(MODEL, seed=0)
    decompose_for_device(model, device, IMAGE_HW, budget=0.5, rank_step=2)
    return model.eval()


def bench_backend(model, device, backend: str, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, 3) + IMAGE_HW)

    t0 = time.perf_counter()
    plan = plan_model(model, device, IMAGE_HW, core_backend=backend,
                      model_name=MODEL)
    plan_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    exe = compile_model(
        model, device, image_hw=IMAGE_HW, core_backend=backend,
        max_batch=1, model_name=MODEL,
    )
    compile_wall = time.perf_counter() - t0

    # Numeric gate: the compiled hot path must match the module forward.
    y_ref = model.forward(x)
    y = exe.run(x)
    max_err = float(np.abs(y - y_ref).max())
    if max_err > 1e-5:
        print(f"FAIL: {backend} executable deviates from Module.forward "
              f"by {max_err:.3e}")
        sys.exit(1)

    # Allocation gate on the steady state (arena already warm).
    counts = count_allocations(lambda: exe.run(x))
    if any(counts.values()):
        print(f"FAIL: {backend} hot path allocated: "
              f"{ {k: v for k, v in counts.items() if v} }")
        sys.exit(1)

    best = min(exe.measure(x, repeats=repeats) for _ in range(2))
    print(f"    {backend:>14s}  compile {compile_wall * 1e3:7.2f} ms  "
          f"run {best * 1e3:7.3f} ms  maxerr {max_err:.1e}  "
          f"arena {exe.arena.nbytes / 1e3:.0f} kB")
    return {
        "plan_wall_s": plan_wall,
        "compile_wall_s": compile_wall,
        "request_wall_s": best,
        "predicted_latency_s": exe.predicted_latency(),
        "max_abs_err": max_err,
        "arena_buffers": exe.arena.n_buffers,
        "arena_bytes": exe.arena.nbytes,
        "core_dispatch": exe.backend_counts(),
    }


def bench_microbatching(model, device, n_requests: int) -> dict:
    rng = np.random.default_rng(1)
    xs = rng.standard_normal((n_requests, 3) + IMAGE_HW)
    results = {}
    for max_batch in BATCH_SIZES:
        exe = compile_model(
            model, device, image_hw=IMAGE_HW, core_backend="auto",
            max_batch=max_batch, model_name=MODEL,
        )
        with InferenceSession(exe) as session:
            n_clients = 4
            per_client = n_requests // n_clients

            def client(i: int) -> None:
                for x in xs[i * per_client : (i + 1) * per_client]:
                    session.infer(x, timeout=60.0)

            t0 = time.perf_counter()
            threads = [
                threading.Thread(target=client, args=(i,))
                for i in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            wall = time.perf_counter() - t0
            stats = session.stats()
        throughput = stats.requests / wall
        print(f"    max_batch {max_batch}: {throughput:8.1f} req/s  "
              f"mean batch {stats.mean_batch_size:.2f}  "
              f"p95 {stats.p95_latency_s * 1e3:.2f} ms")
        results[str(max_batch)] = {
            "throughput_rps": throughput,
            "mean_batch_size": stats.mean_batch_size,
            "mean_latency_s": stats.mean_latency_s,
            "p95_latency_s": stats.p95_latency_s,
            "batches": stats.batches,
        }
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer requests/repeats, quick "
                             "output file")
    parser.add_argument("--device", default="A100")
    args = parser.parse_args()

    device = get_device(args.device)
    repeats = 2 if args.quick else 5
    n_requests = 32 if args.quick else 256
    model = make_model(device)

    print(f"serving benchmark: {MODEL} on {device.name} "
          f"({'quick' if args.quick else 'full'})")
    per_backend = {}
    for backend in backend_names():
        try:
            per_backend[backend] = bench_backend(model, device, backend,
                                                 repeats)
        except (ValueError, NotImplementedError) as exc:
            print(f"    {backend:>14s}  skipped ({exc})")

    print("  micro-batching throughput:")
    micro = bench_microbatching(model, device, n_requests)

    out = {
        "model": MODEL,
        "device": device.name,
        "image_hw": list(IMAGE_HW),
        "quick": args.quick,
        "backends": per_backend,
        "microbatching": micro,
    }
    path = "BENCH_serving.quick.json" if args.quick else "BENCH_serving.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
