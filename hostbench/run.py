#!/usr/bin/env python3
"""Host benchmark of the served path.

Deploys one workload through the library's public entry points in a
fresh interpreter, drives seeded traffic for ``--seconds``, checks every
output against ``Module.forward`` of the decomposed model, and prints
the end-to-end metrics (``--trace 0``) or, with every layer's public
calls wrapped in spans, the per-layer metrics (``--trace 1``).  The last
line of standard output is one JSON object::

    {"correct": true, "attempted": 152, "failed": 0,
     "metrics": {"latency_p90_ms": {"value": 181.2, "unit": "ms"}, ...}}

Run from the repository root::

    python3 hostbench/run.py --workload exec-resnet18 --seed 1 \\
        --seconds 15 --trace 0

Workloads are defined in ``workloads.py``; see ``README.md`` for the
metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Chrome trace-event files of traced runs.
OUT = ROOT / ".hostbench"
#: Traffic chunks per run.  An untraced run times a cold deploy in a
#: fresh interpreter between each pair of chunks; spreading the traffic
#: over the run evens out slow drifts of a shared host.
CHUNKS = 3
WORKLOADS = ("exec-resnet18", "serve-vgg16", "fleet-vgg16")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one cold deploy and print it (used by the "
                        "benchmark itself to repeat the set-up)")
    return p.parse_args(argv)


def environment(threads: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    # Library and benchmark sources: the checkout need not be a git
    # repository, so this digest is what identifies the code measured.
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "threads": threads,
        "numpy": np.__version__, "blas": blas,
        "commit": commit, "source_sha256": digest.hexdigest()[:16],
    }


def cpu_ticks():
    """``(steal, total)`` CPU ticks from ``/proc/stat`` (zeros where the
    file is missing): how much of the run the host took back."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def child_setup(args, trace: int) -> float:
    """One cold deploy in a fresh interpreter, with the tracing wrappers
    installed or not."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def traffic_metrics(phases):
    """``(percentiles, throughput)`` of the closed-loop phases: every
    ``closed`` one, or ``serve-vgg16``'s ``saturated`` ones.  Latency
    runs from each call or send to its completion; throughput counts the
    images completed inside each phase's window."""
    from percentiles import percentile

    timed = [p for p in phases if p.name in ("closed", "saturated")]
    lat = [(s.end - s.start) * 1e3 for p in timed for s in p.samples
           if s.error is None]
    pcts = {q: percentile(lat, q) for q in (50, 90, 99)}
    done = sum(p.window_completed if p.name == "saturated" else
               sum(1 for s in p.samples if s.error is None) for p in timed)
    return pcts, done / sum(p.end - p.start for p in timed)


def end_to_end(phases, setups, rss_mb):
    """``({metric: (value, unit)}, percentiles)``."""
    pcts, ips = traffic_metrics(phases)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p90_ms": (pcts[90][0], "ms"),
        "throughput_ips": (ips, "images/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, pcts


def forward_ms(work, batch: int):
    """Median ``Module.forward`` ms per image of the decomposed model
    and of the dense model, on one batch from the input pool."""
    import repro.models.registry as registry

    x = work.inputs.pool[:batch]
    dense = registry.build_model(work.model_name, num_classes=10, seed=0)
    dense.eval()
    out = []
    for model in (work.decomposed[0], dense):
        model.forward(x)
        times = []
        for _ in range(7):
            t0 = time.perf_counter()
            model.forward(x)
            times.append(time.perf_counter() - t0)
        out.append(statistics.median(times) * 1e3 / batch)
    return tuple(out)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"hostbench: library source not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads as wl
    from percentiles import MIN_BEYOND, percentile
    from repro.runtime.pool import pool_stats

    cls = wl.WORKLOADS[args.workload]
    inputs = wl.make_inputs(args.seed, args.seconds, cls.clients)
    work = cls(inputs)
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
    t0 = time.perf_counter()
    work.deploy()
    deploy_end = time.perf_counter()
    if args.setup_only:
        work.close()
        print(json.dumps({"setup_s": deploy_end - t0}))
        return 0
    setups = [deploy_end - t0]
    if tracer is not None:
        hit_ratio = layers.cache_hit_ratio()
        layers.instrument(tracer, work)
    work.compute_references()
    ticks0 = cpu_ticks()
    # (label, phases) per traffic chunk.  A traced run follows each
    # traced chunk with an untraced one of the same length, and times an
    # untraced and then a traced child deploy in the gaps, so the
    # tracing overhead compares like with like over the same minutes.
    chunks = []
    child_setups = {}
    pool_tasks = 0
    chunk_s = args.seconds / CHUNKS
    try:
        for chunk in range(1, CHUNKS + 1):
            if tracer is None:
                if chunk > 1:
                    setups.append(child_setup(args, 0))
                chunks.append((f"chunk {chunk}", work.drive(chunk_s)))
                continue
            if chunk > 1:
                trace = chunk % 2
                child_setups[trace] = child_setup(args, trace)
                layers.install(tracer)
                layers.instrument(tracer, work)
            tasks0 = pool_stats()["tasks_executed"]
            chunks.append((f"chunk {chunk} traced",
                           work.drive(chunk_s, tracer)))
            pool_tasks += pool_stats()["tasks_executed"] - tasks0
            tracer.uninstall()
            chunks.append((f"chunk {chunk} untraced", work.drive(chunk_s)))
    finally:
        if tracer is not None:
            tracer.uninstall()
        work.close()
    steal, total = (b - a for a, b in zip(ticks0, cpu_ticks()))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- output check ------------------------------------------------
    env = environment(work.executables()[0].threads)
    print(f"hostbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" host_steal={steal / max(total, 1):.1%}")
    attempted = failed = mismatched = 0
    for label, phases in chunks:
        for phase in phases:
            worst, bad, errors = 0.0, 0, 0
            for s in phase.samples:
                err = work.check(s)
                if err is None:
                    errors += 1
                elif err > wl.TOLERANCE:
                    bad += 1
                else:
                    worst = max(worst, err)
            sent = len(phase.samples)
            attempted += sent
            failed += errors + bad
            mismatched += bad
            print(f"{label} phase {phase.name}: sent {sent} succeeded "
                  f"{sent - errors - bad} failed {errors + bad} "
                  f"(mismatches {bad}, max |y - ref| {worst:.3g})")
            first_error = next((s.error for s in phase.samples if s.error),
                               None)
            if first_error:
                print(f"  first error: {first_error}")

    measured = [p for label, ps in chunks if "untraced" not in label
                for p in ps]
    metrics, pcts = end_to_end(measured, setups, rss_mb)
    if tracer is None:
        print(f"setup_s: {metrics['setup_s'][0]:.4f} (median of "
              f"{len(setups)} cold deploys: "
              + " ".join(f"{s:.4f}" for s in setups) + ")")
    unsupported = []
    for q, (value, n, beyond) in pcts.items():
        note = ("-> latency_p90_ms" if q == 90 else
                "(report only)" if beyond >= MIN_BEYOND else
                "(too few samples beyond; not reported)")
        print(f"latency p{q}: {value:.4f} ms (n={n}, {beyond} beyond) "
              + note)
        if q != 99 and beyond < MIN_BEYOND:
            unsupported.append(f"latency p{q} ({beyond} beyond)")
    # Open-loop latency, due time to completion: printed, not gated.
    open_lat = [(s.end - s.start) * 1e3 for p in measured
                if p.name == "open" for s in p.samples if s.error is None]
    if open_lat:
        for q in (50, 90, 99):
            value, n, beyond = percentile(open_lat, q)
            note = ("(report only)" if beyond >= MIN_BEYOND else
                    "(too few samples beyond; not reported)")
            print(f"open-phase latency p{q}: {value:.4f} ms (n={n}, "
                  f"{beyond} beyond) {note}")
    for key in ("throughput_ips", "peak_rss_mb"):
        print(f"{key}: {metrics[key][0]:.4f} {metrics[key][1]}")

    if tracer is None:
        result = metrics
    else:
        untraced = [p for label, ps in chunks if "untraced" in label
                    for p in ps]
        windows = [(min(p.start for p in ps), max(p.end for p in ps))
                   for label, ps in chunks if "untraced" not in label]
        result = traced_report(args, work, tracer, measured, untraced,
                               child_setups, windows, deploy_end,
                               pool_tasks, hit_ratio, unsupported)

    if unsupported:
        print("FAIL: fewer than 10 samples beyond "
              + ", ".join(unsupported), file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in result.items()},
    }))
    return 1 if mismatched else 0


def traced_report(args, work, tracer, phases, untraced, child_setups,
                  windows, deploy_end, pool_tasks, hit_ratio, unsupported):
    import layers
    from percentiles import MIN_BEYOND

    sessions = getattr(work, "sessions", lambda: [])()
    mean_batch = 1
    if sessions:
        stats = [s.stats() for s in sessions]
        batches = sum(s.batches for s in stats)
        if batches:
            mean_batch = max(1, round(sum(s.requests for s in stats)
                                      / batches))
    fwd = forward_ms(work, mean_batch)
    per_layer, table, pcts = layers.per_layer_metrics(
        tracer, work, phases, windows, deploy_end, pool_tasks, hit_ratio,
        fwd)
    for key, (value, n, beyond) in pcts.items():
        print(f"{key}: {value:.4f} ms (n={n}, {beyond} beyond)")
        if "_p50" not in key and beyond < MIN_BEYOND:
            unsupported.append(f"{key} ({beyond} beyond)")

    print("\nself time per completed image, traced chunks:")
    print(f"  {'span':<40} {'calls':>8} {'ms/img':>10} {'share':>7}")
    for name, calls, ms, share in table:
        print(f"  {name:<40} {calls:>8} {ms:>10.4f} {share:>7.1%}")
    print(f"  {'(no span) ms/request':<40} {'':>8} "
          f"{per_layer['trace.unaccounted_ms'][0]:>10.4f}")

    print("\ntracing overhead, traced minus untraced over the same "
          "minutes (traffic: the traced chunks against the untraced "
          "chunk after each; set-up: one fresh-interpreter deploy with "
          "the wrappers and one without, between the chunks):")
    traced_pcts, traced_ips = traffic_metrics(phases)
    plain_pcts, plain_ips = traffic_metrics(untraced)
    rows = [
        ("setup_s", child_setups[1], child_setups[0], "s"),
        ("latency_p50_ms", traced_pcts[50][0], plain_pcts[50][0], "ms"),
        ("latency_p90_ms", traced_pcts[90][0], plain_pcts[90][0], "ms"),
        ("throughput_ips", traced_ips, plain_ips, "images/s"),
    ]
    for key, traced, plain, unit in rows:
        print(f"  {key:<16} traced {traced:12.4f}  untraced {plain:12.4f}"
              f"  overhead {traced - plain:+.4f} {unit} "
              f"({(traced - plain) / plain:+.1%})")
    print("  peak RSS is not paired (one process runs both); the traced "
          f"process holds {len(tracer.spans)} spans")

    served = layers.assign_batches(tracer)
    batches = {}
    for rid, span in served.items():
        batches.setdefault(span.id, []).append(rid)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    tracer.write_chrome_trace(str(path), batches)
    print(f"\n{len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}")
    print("\nper-layer metrics:")
    for key, (value, unit) in per_layer.items():
        print(f"  {key:<42} {value:14.6g} {unit}")
    return per_layer


if __name__ == "__main__":
    sys.exit(main())
