"""CI chaos smoke: the fleet must survive injected faults, fast.

A deliberately small, bounded version of the chaos soak in
``benchmarks/bench_fleet.py`` so CI can run it on every push:

- three replicas, one (33%) running a fault cocktail (mid-batch
  exceptions, NaN-corrupted outputs, worker death) from a fixed seed;
- closed-loop mixed-priority traffic;
- gates: **zero lost** requests (every submit terminates), **zero
  hung** clients, only **typed** errors, **zero corrupted outputs
  served**, the circuit breaker **restarts and readmits** the faulted
  replica, and memory stays **bounded** across the soak (no per-request
  leak: RSS growth after warmup under a fixed cap).

Exits non-zero on any gate failure.

Run:  PYTHONPATH=src python scripts/chaos_smoke.py
"""

from __future__ import annotations

import resource
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
    deploy_fleet,
)
from repro.serving.faults import WorkerCrash

TYPED_ERRORS = (Overloaded, DeadlineExceeded, CorruptedOutput,
                InjectedFault, WorkerCrash)
N_REQUESTS = 120
N_CLIENTS = 4
RSS_CAP_MB = 256.0


def rss_mb() -> float:
    # ru_maxrss is kB on Linux, bytes on macOS.
    scale = 1024.0 if sys.platform == "darwin" else 1.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale / 1024.0


def main() -> int:
    fleet = deploy_fleet(
        "resnet_tiny", [get_device("A100")], replicas_per_device=3,
        image_hw=(8, 8), max_batch=4, fallback_budget=0.7,
        retry=RetryPolicy(max_attempts=3),
        breaker=CircuitBreakerPolicy(failure_threshold=3,
                                     reset_timeout_s=0.05),
    )
    injector = FaultInjector(seed=1234)
    faulted = fleet.replicas[0]
    wrapped = injector.infect(
        faulted.session,
        FaultSpec(exception_p=0.2, corrupt_p=0.1, crash_p=0.05),
    )

    shape = fleet.replicas[0].session.executable.input_shape
    xs = np.random.default_rng(0).standard_normal((8,) + shape)
    priorities = ("high", "normal", "low")
    outcomes: list = []
    lock = threading.Lock()
    # Warm every path once, then baseline RSS: growth from here on
    # would be a per-request leak, which the soak must not have.
    fleet.infer(xs[0], priority="normal", timeout=30.0)
    rss_before = rss_mb()

    def client(c: int) -> None:
        for j in range(N_REQUESTS // N_CLIENTS):
            outcome, finite = "ok", True
            try:
                y = fleet.infer(xs[j % 8],
                                priority=priorities[(c + j) % 3],
                                timeout=10.0)
                finite = bool(np.isfinite(y).all())
            except TYPED_ERRORS as exc:
                outcome = type(exc).__name__
            except Exception as exc:
                outcome = f"UNTYPED:{type(exc).__name__}"
            with lock:
                outcomes.append((outcome, finite))

    threads = [threading.Thread(target=client, args=(c,))
               for c in range(N_CLIENTS)]
    for t in threads:
        t.start()
    hung = 0
    for t in threads:
        t.join(timeout=120.0)
        hung += t.is_alive()

    # Give maintenance time to walk the breaker back to closed.
    deadline = time.perf_counter() + 15.0
    while (time.perf_counter() < deadline
           and not (faulted.state == "closed"
                    and (faulted.restarts >= 1 or faulted.failures == 0))):
        time.sleep(0.05)
    rss_after = rss_mb()
    stats = fleet.stats()
    fleet.close()

    lost = N_REQUESTS - len(outcomes)
    untyped = [o for o, _ in outcomes if o.startswith("UNTYPED")]
    corrupted = [1 for o, finite in outcomes if o == "ok" and not finite]
    completed = sum(1 for o, _ in outcomes if o == "ok")
    recovered = (faulted.state == "closed"
                 and (faulted.restarts >= 1 or faulted.failures == 0))
    rss_growth = rss_after - rss_before

    print(f"chaos smoke: {completed}/{len(outcomes)} completed, "
          f"{sum(wrapped.injected.values())} faults injected "
          f"({dict(wrapped.injected)}), retries {stats.retries}, "
          f"corruption blocked {stats.corruption_blocked}")
    print(f"faulted replica: state {faulted.state!r} "
          f"restarts {faulted.restarts} failures {faulted.failures}; "
          f"rss growth {rss_growth:.1f} MB")

    gates = {
        "zero_lost": lost == 0,
        "zero_hung_clients": hung == 0,
        "typed_errors_only": not untyped,
        "zero_corrupted_served": not corrupted,
        "breaker_recovered": recovered,
        "bounded_memory": rss_growth < RSS_CAP_MB,
    }
    failed = [name for name, ok in gates.items() if not ok]
    for name in failed:
        print(f"FAIL: {name}")
    if failed:
        return 1
    print("chaos smoke passed:", ", ".join(gates))
    return 0


if __name__ == "__main__":
    sys.exit(main())
