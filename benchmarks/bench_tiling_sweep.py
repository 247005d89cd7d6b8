"""Cold-sweep benchmark: scalar vs batched tiling selection.

Times the planner's *cold* path — the part the planning cache cannot
help with — in three scenarios:

1. cold ORACLE sweep on single shapes: per-candidate scalar loop vs
   one vectorized batch pass (single process);
2. cold MODEL sweep on the same shapes, scalar vs batched;
3. the performance-table selection grid (every ``(D1, D2)`` core
   shape's full candidate sweep): per-shape scalar loops vs one
   concatenated ``select_tilings_grid`` pass.

Every comparison first asserts the batched winner is *identical* to
the scalar winner (exit code 1 on mismatch — the CI smoke job runs
``--quick`` for exactly this check).  Results are written to a
machine-readable ``BENCH_tiling_sweep.json`` so future PRs can track
the perf trajectory.

Run:  PYTHONPATH=src python benchmarks/bench_tiling_sweep.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Callable, Tuple

from repro.gpusim.device import get_device
from repro.kernels.base import ConvShape
from repro.perfmodel.tiling import (
    select_tiling_model,
    select_tiling_model_scalar,
    select_tiling_oracle,
    select_tiling_oracle_scalar,
    select_tilings_grid,
)
from repro.tensor.formats import get_format

# Representative conv layer shapes (ResNet/VGG trunk sizes).
SWEEP_SHAPES: Tuple[Tuple[int, int, int, int], ...] = (
    (64, 32, 56, 56),
    (128, 64, 28, 28),
    (256, 128, 14, 14),
)
TABLE_SHAPE = (128, 128, 28, 28)


def _best_of(repeats: int, fn: Callable[[], object]) -> Tuple[float, object]:
    """Minimum wall-clock over ``repeats`` runs, with the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_single_shape_sweeps(device, shapes, method: str, repeats: int) -> dict:
    scalar_fn = (
        select_tiling_oracle_scalar if method == "oracle" else select_tiling_model_scalar
    )
    batched_fn = select_tiling_oracle if method == "oracle" else select_tiling_model
    rows = []
    for tup in shapes:
        shape = ConvShape(*tup)
        scalar_s, ref = _best_of(repeats, lambda: scalar_fn(shape, device))
        batched_s, got = _best_of(repeats, lambda: batched_fn(shape, device))
        if got != ref:
            raise SystemExit(
                f"MISMATCH: {method} sweep on {shape}: batched {got} "
                f"!= scalar {ref}"
            )
        rows.append(
            {
                "shape": list(tup),
                "scalar_s": scalar_s,
                "batched_s": batched_s,
                "speedup": scalar_s / batched_s,
            }
        )
        print(
            f"  {method:6s} {str(shape):>18s}  scalar {scalar_s * 1e3:8.2f} ms"
            f"  batched {batched_s * 1e3:7.2f} ms  ({scalar_s / batched_s:6.1f}x)"
        )
    return {"method": method, "rows": rows}


def bench_table_grid(device, method: str, repeats: int) -> dict:
    c, n, h, w = TABLE_SHAPE
    core_shapes = [
        ConvShape(c=d1, n=d2, h=h, w=w)
        for d1, d2 in get_format("tucker").rank_candidates(c, n, 3, 3, 32)
    ]
    scalar_fn = (
        select_tiling_oracle_scalar if method == "oracle" else select_tiling_model_scalar
    )
    scalar_s, refs = _best_of(
        repeats, lambda: [scalar_fn(s, device) for s in core_shapes]
    )
    batched_s, got = _best_of(
        repeats, lambda: select_tilings_grid(core_shapes, device, method=method)
    )
    if got != refs:
        raise SystemExit(f"MISMATCH: {method} table grid on {TABLE_SHAPE}")
    print(
        f"  grid   {method:6s} {len(core_shapes):3d} core shapes"
        f"  scalar {scalar_s * 1e3:8.2f} ms  batched {batched_s * 1e3:7.2f} ms"
        f"  ({scalar_s / batched_s:6.1f}x)"
    )
    return {
        "method": method,
        "layer_shape": list(TABLE_SHAPE),
        "core_shapes": len(core_shapes),
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="one shape, one repeat; never asserts speedup "
                        "(CI smoke mode)")
    parser.add_argument("--device", default="A100")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", dest="json_path", default=None,
                        help="output path (default BENCH_tiling_sweep.json; "
                        "--quick writes BENCH_tiling_sweep.quick.json so the "
                        "tracked full-run trajectory file is never clobbered)")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="required batched-vs-scalar speedup for the "
                        "cold oracle sweep (ignored with --quick)")
    args = parser.parse_args()

    device = get_device(args.device)
    shapes = SWEEP_SHAPES[:1] if args.quick else SWEEP_SHAPES
    repeats = 1 if args.quick else args.repeats
    if args.json_path is None:
        args.json_path = (
            "BENCH_tiling_sweep.quick.json" if args.quick
            else "BENCH_tiling_sweep.json"
        )

    print(f"Cold tiling sweeps on {device.name} "
          f"({'quick' if args.quick else f'best of {repeats}'}):")
    results = {
        "device": device.name,
        "device_fingerprint": device.fingerprint(),
        "quick": args.quick,
        "repeats": repeats,
        "single_shape": [
            bench_single_shape_sweeps(device, shapes, "oracle", repeats),
            bench_single_shape_sweeps(device, shapes, "model", repeats),
        ],
        "table_grid": [bench_table_grid(device, "oracle", repeats)],
    }
    oracle_speedups = [
        r["speedup"] for r in results["single_shape"][0]["rows"]
    ]
    results["min_oracle_speedup"] = min(oracle_speedups)
    with open(args.json_path, "w") as fh:
        json.dump(results, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.json_path}")

    if not args.quick and results["min_oracle_speedup"] < args.min_speedup:
        print(
            f"FAIL: cold oracle sweep speedup "
            f"{results['min_oracle_speedup']:.1f}x < {args.min_speedup:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
