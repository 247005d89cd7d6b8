"""Fleet benchmark: routing on heterogeneous replicas + chaos soak.

Two scenarios, both **gated** (the script exits non-zero when a gate
fails — this is what the CI smoke job runs with ``--quick``):

1. **Router comparison** — a two-replica fleet where one replica is a
   modeled slow device (constant extra latency, honestly reflected in
   its ``predicted_latency()``, exactly what a slower GPU's own plan
   looks like to the router).  The same closed-loop client traffic
   runs once under ``least-loaded`` and once under ``round-robin``;
   the gate requires the latency-aware router to beat the speed-blind
   baseline on p99 (it avoids the slow replica until queueing makes it
   worthwhile; round-robin alternates onto it half the time).

2. **Chaos soak** — a five-replica fleet with 20% of replicas running
   a fault cocktail (mid-batch exceptions, NaN-corrupted outputs,
   latency spikes, worker death) under bursty mixed-priority traffic.
   Gates: every request terminates (completed or *typed* error — zero
   lost, zero hung clients), zero corrupted outputs served, the
   circuit breaker restarts and readmits the faulted replica, and
   priority fairness holds (high-priority completion rate is not worse
   than low-priority).

Wall-clock numbers are informational (shared runners flake); the gates
are correctness properties.

Run:  PYTHONPATH=src python benchmarks/bench_fleet.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

import numpy as np

from repro.gpusim.device import get_device
from repro.serving import (
    CircuitBreakerPolicy,
    CorruptedOutput,
    DeadlineExceeded,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    Overloaded,
    RetryPolicy,
    WorkerCrash,
    deploy_fleet,
    latency_quantile,
)

MODEL = "resnet_tiny"
IMAGE_HW = (8, 8)
#: Errors a fleet client may legitimately see.  Anything else (or a
#: hang) is a lost request and fails the gate.
TYPED_ERRORS = (Overloaded, DeadlineExceeded, CorruptedOutput,
                InjectedFault, WorkerCrash)


def make_fleet(router: str, *, slow_extra_s: float = 0.0,
               replicas_per_device: int = 1, fallback: bool = False,
               seed: int = 0):
    fleet = deploy_fleet(
        MODEL, [get_device("A100")],
        replicas_per_device=replicas_per_device,
        image_hw=IMAGE_HW, max_batch=4, router=router,
        fallback_budget=0.7 if fallback else None,
        retry=RetryPolicy(max_attempts=3),
        breaker=CircuitBreakerPolicy(failure_threshold=3,
                                     reset_timeout_s=0.05),
    )
    if slow_extra_s > 0.0:
        # Model a slower device: the wrapper slows run() AND raises
        # predicted_latency() by the same amount, so the least-loaded
        # router sees the truth a slower device's plan would tell it.
        injector = FaultInjector(seed=seed)
        injector.infect(fleet.replicas[-1].session,
                        FaultSpec(extra_latency_s=slow_extra_s))
    return fleet


def drive(fleet, n_requests: int, n_clients: int, priorities,
          timeout: float, burst_every: int = 0, burst_pause_s: float = 0.0):
    """Closed-loop clients; returns per-request outcome records."""
    rng = np.random.default_rng(0)
    shape = fleet.replicas[0].session.executable.input_shape
    xs = rng.standard_normal((max(n_clients, 1), 8) + shape)
    records = []
    lock = threading.Lock()
    per_client = n_requests // n_clients

    def client(c: int) -> None:
        for j in range(per_client):
            if burst_every and j and j % burst_every == 0:
                time.sleep(burst_pause_s)
            priority = priorities[(c + j) % len(priorities)]
            t0 = time.perf_counter()
            outcome, finite = "ok", True
            try:
                y = fleet.infer(xs[c, j % 8], priority=priority,
                                timeout=timeout)
                finite = bool(np.isfinite(y).all())
            except TYPED_ERRORS as exc:
                outcome = type(exc).__name__
            except Exception as exc:  # untyped: gate failure
                outcome = f"UNTYPED:{type(exc).__name__}"
            wall = time.perf_counter() - t0
            with lock:
                records.append(
                    {"priority": priority, "outcome": outcome,
                     "finite": finite, "wall_s": wall}
                )

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(n_clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    hung = 0
    for t in threads:
        t.join(timeout=120.0)
        hung += t.is_alive()
    wall = time.perf_counter() - t0
    return records, wall, hung


def summarize(records) -> dict:
    by_priority: dict = {}
    for r in records:
        by_priority.setdefault(r["priority"], []).append(r)
    out = {}
    for priority, rs in sorted(by_priority.items()):
        oks = np.array([r["wall_s"] for r in rs if r["outcome"] == "ok"])
        out[priority] = {
            "requests": len(rs),
            "completed": int(oks.size),
            "completion_rate": float(oks.size / len(rs)),
            "p50_ms": latency_quantile(oks, 0.50) * 1e3,
            "p99_ms": latency_quantile(oks, 0.99) * 1e3,
        }
    return out


def bench_router(n_requests: int) -> dict:
    """Least-loaded vs round-robin on a fast+slow replica pair."""
    print("  router comparison (1 fast + 1 modeled-slow replica):")
    slow_extra_s = 0.03
    results = {}
    for policy in ("round-robin", "least-loaded"):
        fleet = make_fleet(policy, slow_extra_s=slow_extra_s,
                           replicas_per_device=2)
        try:
            records, wall, hung = drive(
                fleet, n_requests, n_clients=2,
                priorities=("normal",), timeout=30.0,
            )
        finally:
            fleet.close()
        oks = np.array([r["wall_s"] for r in records
                        if r["outcome"] == "ok"])
        p50 = latency_quantile(oks, 0.50)
        p99 = latency_quantile(oks, 0.99)
        print(f"    {policy:>12s}  completed {oks.size}/{len(records)}  "
              f"p50 {p50 * 1e3:7.2f} ms  p99 {p99 * 1e3:7.2f} ms  "
              f"wall {wall:.2f} s")
        results[policy] = {
            "completed": int(oks.size),
            "requests": len(records),
            "hung_clients": hung,
            "p50_s": p50,
            "p99_s": p99,
            "wall_s": wall,
        }
    gate = (results["least-loaded"]["p99_s"]
            < results["round-robin"]["p99_s"])
    results["gate_least_loaded_beats_round_robin_p99"] = bool(gate)
    if not gate:
        print("FAIL: least-loaded p99 did not beat round-robin on the "
              "heterogeneous fleet")
    return results


def bench_chaos_soak(n_requests: int) -> dict:
    """Bursty mixed-priority traffic with 20% of replicas faulted."""
    print("  chaos soak (5 replicas, 1 faulted, bursty mixed traffic):")
    fleet = make_fleet("least-loaded", replicas_per_device=5,
                       fallback=True)
    injector = FaultInjector(seed=42)
    faulted = fleet.replicas[0]
    wrapped = injector.infect(
        faulted.session,
        FaultSpec(exception_p=0.15, corrupt_p=0.10,
                  latency_spike_p=0.05, latency_spike_s=0.01,
                  crash_p=0.05),
    )
    try:
        records, wall, hung = drive(
            fleet, n_requests, n_clients=4,
            priorities=("high", "normal", "low"), timeout=10.0,
            burst_every=8, burst_pause_s=0.02,
        )
        # Let maintenance finish walking the breaker before snapshotting.
        deadline = time.perf_counter() + 15.0
        while (time.perf_counter() < deadline
               and not (faulted.state == "closed"
                        and (faulted.restarts >= 1
                             or faulted.failures == 0))):
            time.sleep(0.05)
        stats = fleet.stats()
    finally:
        fleet.close()

    untyped = [r for r in records if r["outcome"].startswith("UNTYPED")]
    corrupted_served = [r for r in records
                        if r["outcome"] == "ok" and not r["finite"]]
    lost = n_requests - len(records)
    injected_total = sum(wrapped.injected.values())
    breaker_recovered = (faulted.state == "closed"
                         and (faulted.restarts >= 1
                              or faulted.failures == 0))
    per_priority = summarize(records)
    fair = (per_priority["high"]["completion_rate"]
            >= per_priority["low"]["completion_rate"] - 1e-9)

    print(f"    {len(records)} requests in {wall:.2f} s, "
          f"{injected_total} faults injected "
          f"({dict(wrapped.injected)})")
    for priority, s in per_priority.items():
        print(f"    {priority:>6s}: {s['completed']}/{s['requests']} ok "
              f"({s['completion_rate'] * 100:5.1f}%)  "
              f"p99 {s['p99_ms']:7.2f} ms")
    print(f"    faulted replica: state {faulted.state!r}, "
          f"restarts {faulted.restarts}, failures {faulted.failures}")

    gates = {
        "zero_lost": lost == 0,
        "zero_hung_clients": hung == 0,
        "typed_errors_only": not untyped,
        "zero_corrupted_served": not corrupted_served,
        "breaker_readmitted_faulted_replica": breaker_recovered,
        "priority_fairness": bool(fair),
    }
    for name, ok in gates.items():
        if not ok:
            print(f"FAIL: chaos gate {name}")
    return {
        "requests": len(records),
        "wall_s": wall,
        "injected": dict(wrapped.injected),
        "retries": stats.retries,
        "corruption_blocked": stats.corruption_blocked,
        "admission": {
            "admitted": stats.admission.admitted,
            "shed": stats.admission.shed,
            "degraded": stats.admission.degraded,
        },
        "faulted_replica": {
            "state": faulted.state,
            "restarts": faulted.restarts,
            "failures": faulted.failures,
        },
        "per_priority": per_priority,
        "gates": gates,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: fewer requests, quick output file")
    args = parser.parse_args()

    n_router = 64 if args.quick else 256
    n_soak = 96 if args.quick else 480

    print(f"fleet benchmark: {MODEL} "
          f"({'quick' if args.quick else 'full'})")
    router = bench_router(n_router)
    soak = bench_chaos_soak(n_soak)

    out = {
        "model": MODEL,
        "image_hw": list(IMAGE_HW),
        "quick": args.quick,
        "router": router,
        "chaos_soak": soak,
    }
    path = "BENCH_fleet.quick.json" if args.quick else "BENCH_fleet.json"
    with open(path, "w") as fh:
        json.dump(out, fh, indent=2, sort_keys=True)
    print(f"wrote {path}")

    ok = (router["gate_least_loaded_beats_round_robin_p99"]
          and all(soak["gates"].values()))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
