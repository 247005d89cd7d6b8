#!/usr/bin/env python3
"""Run the benchmark on several seeds and report how steady it is.

For every workload and end-to-end metric this prints the median, the
quartiles (``statistics.quantiles(values, n=4)``), the spread (distance
between the quartiles as a share of the median) next to the metric's
bound from ``BENCHMARK.json``, and every run's value.  Runs go
seed-major, so slow drifts of the host spread over all workloads.  Each
run measures ``run_seconds`` from ``BENCHMARK.json``.

    python3 hostbench/steadiness.py --seeds 1 2 3 4 5 \\
        --workloads serve-vgg16 > steadiness.md
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "hostbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"({proc.returncode}):\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    return {"seed": seed, "wall_s": wall,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs, bounds):
    rows = []
    for metric, bound in bounds.items():
        values = [r["metrics"][metric] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        rows.append((metric, med, q1, q3, (q3 - q1) / med, bound, values))
    return rows


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = p.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {w: [] for w in args.workloads}
    for seed in args.seeds:
        for w in args.workloads:
            r = run_once(w, seed, spec["run_seconds"])
            runs[w].append(r)
            print(f"{w} seed {seed}: {r['wall_s']:.1f} s  " + "  ".join(
                f"{k}={v:.4g}" for k, v in r["metrics"].items()), flush=True)

    lines = []
    for w, rs in runs.items():
        lines.append(f"\n### {w} ({len(rs)} seeds: "
                     f"{' '.join(str(r['seed']) for r in rs)}; run wall "
                     f"{statistics.median(r['wall_s'] for r in rs):.1f} s "
                     f"median)\n")
        lines.append("| metric | median | q1 | q3 | spread | bound | "
                     "every run |")
        lines.append("|---|---|---|---|---|---|---|")
        for metric, med, q1, q3, spread, bound, values in summarize(
                rs, bounds):
            lines.append(
                f"| {metric} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                f"{spread:.1%} | {bound:.0%} | "
                + " ".join(f"{v:.4g}" for v in values) + " |")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
