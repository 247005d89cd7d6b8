"""Command-line interface: regenerate any paper artifact.

Usage:
    python -m repro.cli fig4
    python -m repro.cli fig6 --device 2080Ti
    python -m repro.cli e2e --device A100
    python -m repro.cli e2e --models resnet18 --backend auto tdc-oracle
    python -m repro.cli run --model resnet_tiny --backend auto
    python -m repro.cli serve --model resnet_tiny --requests 64
    python -m repro.cli calibrate --model resnet_tiny --device A100
    python -m repro.cli backends list
    python -m repro.cli oracle-gap --device A100
    python -m repro.cli ablations --device A100
    python -m repro.cli table2
    python -m repro.cli table3 --budget 0.6
    python -m repro.cli budget-sweep
    python -m repro.cli codegen --shape 64 32 56 56
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.backends import known_backend_names
from repro.gpusim.device import get_device


def _add_device(parser: argparse.ArgumentParser, default: str = "A100") -> None:
    parser.add_argument(
        "--device", default=default, help="A100 or 2080Ti (default %(default)s)"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TDC (PPoPP'23) reproduction experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_device(sub.add_parser("fig4", help="latency staircase"), "2080Ti")
    _add_device(sub.add_parser("fig6", help="layerwise kernels (A100)"))
    _add_device(sub.add_parser("fig7", help="layerwise kernels (2080Ti)"),
                "2080Ti")
    e2e = sub.add_parser("e2e", help="end-to-end inference (Figs 8/9)")
    _add_device(e2e)
    e2e.add_argument(
        "--models", nargs="+", default=None,
        help="model specs to estimate (default: the paper's five CNNs)",
    )
    e2e.add_argument(
        "--backend", nargs="+", default=None, choices=known_backend_names(),
        metavar="BACKEND",
        help="core backends to compare (any registered name or 'auto'; "
             f"known: {', '.join(known_backend_names())}; default: the "
             "paper's four compressed variants)",
    )
    e2e.add_argument(
        "--formats", nargs="+", default=None, metavar="FORMAT",
        help="decomposition formats to search per site (names like "
             "tucker/cp/tt, or 'all'); default: tucker only",
    )

    run_p = sub.add_parser(
        "run", help="compile a trainable preset and execute it"
    )
    _add_device(run_p)
    run_p.add_argument("--model", default="resnet_tiny",
                       help="trainable model preset (default %(default)s)")
    run_p.add_argument("--backend", default="auto",
                       choices=known_backend_names(), metavar="BACKEND",
                       help="core-conv backend (default %(default)s)")
    run_p.add_argument("--image-size", type=int, default=8)
    run_p.add_argument("--batch", type=int, default=4)
    run_p.add_argument("--budget", type=float, default=0.5,
                       help="FLOPs-reduction budget for decomposition")
    run_p.add_argument("--no-decompose", action="store_true",
                       help="compile the dense model without Tucker "
                            "decomposition")
    run_p.add_argument("--threads", type=int, default=None,
                       help="parallel-engine worker lanes (default: "
                            "REPRO_NUM_THREADS or min(cores, 8); 1 = "
                            "serial)")

    serve_p = sub.add_parser(
        "serve", help="deploy a micro-batching inference session"
    )
    _add_device(serve_p)
    serve_p.add_argument("--model", default="resnet_tiny",
                         help="trainable model preset (default %(default)s)")
    serve_p.add_argument("--backend", default="auto",
                         choices=known_backend_names(), metavar="BACKEND")
    serve_p.add_argument("--image-size", type=int, default=8)
    serve_p.add_argument("--requests", type=int, default=64,
                         help="synthetic requests to serve (default "
                              "%(default)s)")
    serve_p.add_argument("--clients", type=int, default=4,
                         help="concurrent client threads (default "
                              "%(default)s)")
    serve_p.add_argument("--max-batch", type=int, default=8)
    serve_p.add_argument("--budget", type=float, default=0.5)
    serve_p.add_argument("--threads", type=int, default=None,
                         help="parallel-engine worker lanes (default: "
                              "REPRO_NUM_THREADS or min(cores, 8); 1 = "
                              "serial)")

    fleet_p = sub.add_parser(
        "fleet",
        help="replicated fault-tolerant serving (admission, routing, "
             "circuit breakers) with optional chaos injection",
    )
    fleet_p.add_argument("--model", default="resnet_tiny",
                         help="trainable model preset (default %(default)s)")
    fleet_p.add_argument("--devices", default="A100",
                         help="comma-separated device list; each device "
                              "gets --replicas replicas (default "
                              "%(default)s)")
    fleet_p.add_argument("--replicas", type=int, default=2,
                         help="replicas per device (default %(default)s)")
    fleet_p.add_argument("--router", default="least-loaded",
                         choices=("least-loaded", "round-robin"))
    fleet_p.add_argument("--backend", default="auto",
                         choices=known_backend_names(), metavar="BACKEND")
    fleet_p.add_argument("--image-size", type=int, default=8)
    fleet_p.add_argument("--requests", type=int, default=96,
                         help="synthetic requests (default %(default)s)")
    fleet_p.add_argument("--clients", type=int, default=4,
                         help="concurrent client threads (default "
                              "%(default)s)")
    fleet_p.add_argument("--max-batch", type=int, default=8)
    fleet_p.add_argument("--budget", type=float, default=0.5)
    fleet_p.add_argument("--fallback-budget", type=float, default=0.7,
                         help="FLOPs-reduction fraction of the cheaper "
                              "degradation plan, above --budget "
                              "(default %(default)s); 0 disables the "
                              "fallback")
    fleet_p.add_argument("--priorities", default="high,normal,low",
                         help="comma-separated priority mix for the "
                              "synthetic clients (default %(default)s)")
    fleet_p.add_argument("--timeout", type=float, default=10.0,
                         help="per-request deadline in seconds (default "
                              "%(default)s)")
    fleet_p.add_argument("--chaos", action="store_true",
                         help="fault-inject a fraction of the replicas "
                              "(deterministic from --chaos-seed)")
    fleet_p.add_argument("--chaos-seed", type=int, default=0)
    fleet_p.add_argument("--chaos-fraction", type=float, default=0.2,
                         help="fraction of replicas to infect (default "
                              "%(default)s)")
    fleet_p.add_argument("--chaos-exception-p", type=float, default=0.15,
                         help="per-run probability of an injected "
                              "mid-batch exception")
    fleet_p.add_argument("--chaos-corrupt-p", type=float, default=0.10,
                         help="per-run probability of a NaN-corrupted "
                              "output")
    fleet_p.add_argument("--chaos-crash-p", type=float, default=0.05,
                         help="per-run probability of worker death")
    fleet_p.add_argument("--chaos-spike-p", type=float, default=0.05,
                         help="per-run probability of a latency spike")
    fleet_p.add_argument("--chaos-spike-ms", type=float, default=10.0,
                         help="latency-spike magnitude (default "
                              "%(default)s ms)")
    fleet_p.add_argument("--threads", type=int, default=None,
                         help="parallel-engine worker lanes per replica "
                              "(default: REPRO_NUM_THREADS or "
                              "min(cores, 8); 1 = serial)")

    cal = sub.add_parser(
        "calibrate",
        help="host time of each compiled core next to its simulated "
             "latency",
    )
    _add_device(cal)
    cal.add_argument("--model", default="resnet_tiny",
                     help="trainable model preset (default %(default)s)")
    cal.add_argument("--backend", default="auto",
                     choices=known_backend_names(), metavar="BACKEND",
                     help="core-conv backend to plan with (default "
                          "%(default)s)")
    cal.add_argument("--image-size", type=int, default=8)
    cal.add_argument("--budget", type=float, default=0.5,
                     help="FLOPs-reduction budget for decomposition")
    cal.add_argument("--repeats", type=int, default=5,
                     help="best-of-k measurement repeats (default "
                          "%(default)s)")
    cal.add_argument("--warmup", type=int, default=2)

    backends = sub.add_parser("backends", help="kernel-backend registry")
    backends_sub = backends.add_subparsers(dest="backends_command",
                                           required=True)
    backends_sub.add_parser("list", help="registered core-conv backends")
    _add_device(sub.add_parser("oracle-gap", help="Sec 5.5 model-vs-oracle"))
    _add_device(sub.add_parser("ablations", help="design-choice ablations"))

    sub.add_parser("table2", help="ADMM vs direct compression")

    t3 = sub.add_parser("table3", help="TDC vs SOTA comparators")
    t3.add_argument("--budget", type=float, default=0.6)

    sub.add_parser("budget-sweep", help="Sec 7.2 accuracy-vs-budget")

    rep = sub.add_parser("report", help="all latency-side artifacts at once")
    rep.add_argument("--no-e2e", action="store_true",
                     help="skip the (slower) end-to-end section")

    cg = sub.add_parser("codegen", help="emit CUDA for one core shape")
    cg.add_argument("--shape", nargs=4, type=int, metavar=("C", "N", "H", "W"),
                    default=[64, 32, 56, 56])
    _add_device(cg)
    cg.add_argument("--method", choices=["model", "oracle"], default="model")

    an = sub.add_parser(
        "analyze",
        help="static invariant rules (repro.analysis) + dynamic probes",
    )
    an.add_argument("--rules", nargs="*", default=None,
                    help="rule names to run (default: all registered)")
    an.add_argument("--paths", nargs="*", default=None,
                    help="files/directories to scan (default: src/repro)")
    an.add_argument("--root", default=".",
                    help="repo root for relative paths and the default "
                         "baseline location (default: cwd)")
    an.add_argument("--baseline", default=None,
                    help="baseline JSON file (default: "
                         "<root>/analysis_baseline.json when present)")
    an.add_argument("--update-baseline", action="store_true",
                    help="snapshot current findings into the baseline "
                         "and exit 0")
    an.add_argument("--json", action="store_true", dest="as_json",
                    help="machine-readable JSON output")
    an.add_argument("--dynamic", action="store_true",
                    help="also run the zero-allocation, live-aliasing "
                         "and poisoned-buffer probes on the quick preset "
                         "sweep")
    an.add_argument("--list-rules", action="store_true",
                    help="list registered rules and exit")

    return parser


def _run_compiled(args: argparse.Namespace) -> int:
    """`repro run`: plan -> compile -> execute one trainable preset."""
    import time

    import numpy as np

    from repro.codesign.pipeline import decompose_for_device
    from repro.inference.executable import compile_model
    from repro.models.registry import build_model
    from repro.utils.tables import Table

    device = get_device(args.device)
    hw = (args.image_size, args.image_size)
    model = build_model(args.model, seed=0)
    if not args.no_decompose:
        try:
            _, rank_plan, rank_map = decompose_for_device(
                model, device, hw, budget=args.budget, rank_step=2,
            )
        except ValueError as exc:
            print(f"note: running dense ({exc})")
        else:
            print(f"decomposed {len(rank_map)} conv(s): "
                  + ", ".join(f"{k}->{v}" for k, v in rank_map.items()))
    model.eval()
    t0 = time.perf_counter()
    exe = compile_model(
        model, device, image_hw=hw, core_backend=args.backend,
        max_batch=args.batch, model_name=args.model,
        threads=args.threads,
    )
    compile_wall = time.perf_counter() - t0
    x = np.random.default_rng(0).standard_normal(
        (args.batch, 3, args.image_size, args.image_size)
    )
    wall = exe.measure(x, repeats=3)
    ref = exe.run(x)

    table = Table(["metric", "value"], title=f"repro run: {exe!r}")
    table.add_row(["cold compile wall (ms)", compile_wall * 1e3])
    table.add_row(["bound conv sites", len(exe.sites())])
    table.add_row(["core dispatch", str(exe.backend_counts() or "-")])
    par = exe.parallel_report()
    table.add_row(["worker lanes", exe.threads])
    table.add_row([
        "parallel sites",
        f"{par['parallel_sites']}/{par['parallel_sites'] + par['serial_sites']}",
    ])
    table.add_row(["arena buffers", exe.arena.n_buffers])
    table.add_row(["arena size (kB)", exe.arena.nbytes / 1e3])
    table.add_row(["predicted latency (ms)", exe.predicted_latency() * 1e3])
    table.add_row([f"measured wall, batch {args.batch} (ms)", wall * 1e3])
    table.add_row(["output shape", str(ref.shape)])
    print(table.render())
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """`repro serve`: deploy a session and push synthetic traffic."""
    import threading
    import time

    import numpy as np

    from repro.serving import SessionRegistry
    from repro.utils.tables import Table

    device = get_device(args.device)
    hw = (args.image_size, args.image_size)
    registry = SessionRegistry()
    t0 = time.perf_counter()
    try:
        session = registry.create(
            args.model, device, backend=args.backend, image_hw=hw,
            budget=args.budget, max_batch=args.max_batch,
            threads=args.threads,
        )
    except ValueError as exc:
        # Rank selection can legitimately decompose nothing (θ rule /
        # tight budget); serve the dense model instead of refusing.
        print(f"note: serving dense ({exc})")
        session = registry.create(
            args.model, device, backend=args.backend, image_hw=hw,
            decompose=False, max_batch=args.max_batch,
            threads=args.threads,
        )
    deploy_wall = time.perf_counter() - t0

    rng = np.random.default_rng(0)
    n_clients = max(1, args.clients)
    # Distribute every requested sample (remainder goes to the first
    # clients) — no request is silently dropped.
    shares = [
        args.requests // n_clients + (1 if i < args.requests % n_clients else 0)
        for i in range(n_clients)
    ]
    xs = [
        rng.standard_normal((share, 3, args.image_size, args.image_size))
        for share in shares
    ]

    def client(i: int) -> None:
        for x in xs[i]:
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
    serve_wall = time.perf_counter() - t0
    stats = session.stats()
    registry.close_all()

    table = Table(
        ["metric", "value"],
        title=f"repro serve: {args.model} on {device.name} "
              f"({args.backend})",
    )
    table.add_row(["deploy wall (s)", deploy_wall])
    table.add_row(["requests served", stats.requests])
    table.add_row(["throughput (req/s)", stats.requests / serve_wall])
    table.add_row(["micro-batches", stats.batches])
    table.add_row(["mean batch size", stats.mean_batch_size])
    table.add_row(["batch histogram", str(stats.batch_histogram)])
    table.add_row(["mean request latency (ms)", stats.mean_latency_s * 1e3])
    table.add_row(["p50 request latency (ms)", stats.p50_latency_s * 1e3])
    table.add_row(["p95 request latency (ms)", stats.p95_latency_s * 1e3])
    table.add_row(["latency window (samples)", stats.latency_window])
    table.add_row(["predicted latency (ms)", stats.predicted_latency_s * 1e3])
    table.add_row(["drift (measured/predicted)", f"{stats.drift_ratio:.2f}x"])
    print(table.render())
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    """`repro fleet`: replicated serving with optional chaos."""
    import math
    import threading
    import time

    import numpy as np

    from repro.serving import (
        CorruptedOutput,
        DeadlineExceeded,
        FaultInjector,
        FaultSpec,
        InjectedFault,
        Overloaded,
        WorkerCrash,
        deploy_fleet,
    )
    from repro.utils.tables import Table

    devices = [get_device(name) for name in args.devices.split(",")]
    priorities = args.priorities.split(",")
    typed = (Overloaded, DeadlineExceeded, CorruptedOutput,
             InjectedFault, WorkerCrash)

    t0 = time.perf_counter()
    fleet = deploy_fleet(
        args.model, devices,
        replicas_per_device=args.replicas, backend=args.backend,
        image_hw=(args.image_size, args.image_size),
        budget=args.budget, max_batch=args.max_batch,
        router=args.router,
        fallback_budget=args.fallback_budget or None,
        threads=args.threads,
    )
    deploy_wall = time.perf_counter() - t0

    infected = []
    if args.chaos:
        injector = FaultInjector(seed=args.chaos_seed)
        spec = FaultSpec(
            exception_p=args.chaos_exception_p,
            corrupt_p=args.chaos_corrupt_p,
            crash_p=args.chaos_crash_p,
            latency_spike_p=args.chaos_spike_p,
            latency_spike_s=args.chaos_spike_ms * 1e-3,
        )
        n_infected = max(1, math.ceil(args.chaos_fraction
                                      * len(fleet.replicas)))
        for replica in fleet.replicas[:n_infected]:
            injector.infect(replica.session, spec)
            infected.append(replica.id)

    rng = np.random.default_rng(0)
    shape = fleet.replicas[0].session.executable.input_shape
    xs = rng.standard_normal((8,) + shape)
    n_clients = max(1, args.clients)
    outcomes: dict = {}
    lock = threading.Lock()

    def client(c: int) -> None:
        for j in range(args.requests // n_clients):
            priority = priorities[(c + j) % len(priorities)]
            try:
                fleet.infer(xs[j % 8], priority=priority,
                            timeout=args.timeout)
                key = "completed"
            except typed as exc:
                key = type(exc).__name__
            with lock:
                outcomes[key] = outcomes.get(key, 0) + 1

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client, args=(c,))
               for c in range(n_clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    serve_wall = time.perf_counter() - t0
    stats = fleet.stats()
    fleet.close()

    table = Table(
        ["metric", "value"],
        title=f"repro fleet: {args.model} x{len(fleet.replicas)} "
              f"({args.router}"
              + (f", chaos on {len(infected)} replicas" if infected
                 else "") + ")",
    )
    table.add_row(["deploy wall (s)", deploy_wall])
    served = outcomes.get("completed", 0)
    table.add_row(["requests completed", served])
    for key in sorted(outcomes):
        if key != "completed":
            table.add_row([f"typed error: {key}", outcomes[key]])
    table.add_row(["throughput (req/s)",
                   served / serve_wall if serve_wall else 0.0])
    table.add_row(["retries", stats.retries])
    table.add_row(["hedges", stats.hedges])
    table.add_row(["corrupted outputs blocked", stats.corruption_blocked])
    table.add_row(["degraded-mode engaged",
                   stats.admission.degraded_mode])
    for name, ps in sorted(stats.per_priority.items()):
        table.add_row([
            f"{name}: ok/degraded/missed",
            f"{ps.completed}/{ps.degraded}/{ps.deadline_exceeded} "
            f"(p99 {ps.p99_latency_s * 1e3:.2f} ms)",
        ])
    for rs in stats.replicas:
        table.add_row([
            f"replica {rs.replica_id}",
            f"{rs.state} ok={rs.successes} fail={rs.failures} "
            f"restarts={rs.restarts}",
        ])
    print(table.render())
    return 0


def _run_calibrate(args: argparse.Namespace) -> int:
    """`repro calibrate`: host seconds of each compiled core next to the
    plan's simulated latency.  Reports only; persists nothing."""
    from repro.calibration import run_calibration
    from repro.codesign.pipeline import decompose_for_device
    from repro.inference.executable import compile_model
    from repro.models.registry import build_model
    from repro.utils.tables import Table

    device = get_device(args.device)
    hw = (args.image_size, args.image_size)
    model = build_model(args.model, seed=0)
    try:
        decompose_for_device(model, device, hw, budget=args.budget,
                             rank_step=2)
    except ValueError as exc:
        print(f"note: measuring dense ({exc})")
    model.eval()
    exe = compile_model(
        model, device, image_hw=hw, core_backend=args.backend,
        max_batch=1, model_name=args.model,
    )
    run = run_calibration(exe, warmup=args.warmup, repeats=args.repeats)

    table = Table(
        ["site", "backend", "layout", "shape class", "simulated (us)",
         "host (ms)", "host / simulated"],
        title=f"Measured vs simulated: {args.model} on {device.name} "
              f"({args.backend})",
    )
    for s in run.samples:
        table.add_row([
            s.site, s.backend, s.layout, s.shape_class, s.predicted_s * 1e6,
            s.measured_s * 1e3, f"{s.ratio:.1f}x",
        ])
    for label, simulated, host in (
        ("core sites", run.core_predicted_s, run.core_measured_s),
        ("whole run", run.total_predicted_s, run.total_measured_s),
    ):
        table.add_row([
            f"({label})", "", "", "", simulated * 1e6, host * 1e3,
            f"{host / simulated:.1f}x" if simulated > 0 else "-",
        ])
    print(table.render())
    return 0


def _run_backends(args: argparse.Namespace) -> int:
    from repro.backends import AUTO_BACKEND, registered_backends
    from repro.utils.tables import Table

    if args.backends_command == "list":
        table = Table(
            ["name", "class", "description"],
            title="Registered kernel backends",
        )
        for backend in registered_backends():
            table.add_row(
                [backend.name, type(backend).__name__, backend.description]
            )
        table.add_row(
            [AUTO_BACKEND, "-",
             "dispatcher: fastest registered backend per core conv"]
        )
        print(table.render())
    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis import (
        apply_baseline, load_baseline, run_rules, save_baseline,
    )
    from repro.analysis.rules import build_rules, rule_catalog

    if args.list_rules:
        for rule in rule_catalog():
            print(f"{rule.name}: {rule.description}")
        return 0

    root = Path(args.root)
    rules = build_rules(args.rules) if args.rules else None
    paths = [Path(p) for p in args.paths] if args.paths else None
    findings = run_rules(paths=paths, rules=rules, root=root)

    baseline_path = (
        Path(args.baseline) if args.baseline
        else root / "analysis_baseline.json"
    )
    if args.update_baseline:
        save_baseline(baseline_path, findings)
        print(f"baseline: {len(findings)} finding(s) -> {baseline_path}")
        return 0

    baseline = load_baseline(baseline_path) if baseline_path.exists() else set()
    new, matched = apply_baseline(findings, baseline)
    stale = sorted(baseline - matched)

    dynamic_report = None
    dynamic_error = None
    if args.dynamic:
        from repro.analysis.dynamic import run_dynamic_probes

        try:
            dynamic_report = run_dynamic_probes(quick=True)
        except AssertionError as exc:
            dynamic_error = str(exc)

    if args.as_json:
        print(json.dumps({
            "findings": [f.to_json() for f in new],
            "baselined": len(matched),
            "stale_baseline": stale,
            "dynamic": dynamic_report,
            "dynamic_error": dynamic_error,
        }, indent=2))
    else:
        for f in new:
            print(f.render())
        if matched:
            print(f"{len(matched)} baselined finding(s) suppressed")
        if stale:
            print(f"{len(stale)} stale baseline entr(ies) — prune with "
                  f"--update-baseline:")
            for key in stale:
                print(f"  {key}")
        if dynamic_report is not None:
            print(f"dynamic probes: {len(dynamic_report)} executables, "
                  f"zero steady-state allocations, no live aliasing, "
                  f"no stale reads")
        if dynamic_error is not None:
            print(f"dynamic probe FAILED: {dynamic_error}")
        print(f"{len(new)} new finding(s)")
    return 1 if (new or dynamic_error) else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "fig4":
        from repro.experiments import fig4

        print(fig4.run(get_device(args.device)).render())
    elif args.command in ("fig6", "fig7"):
        from repro.experiments import layerwise

        device = get_device(args.device)
        print(layerwise.run(device).render())
        print()
        print(layerwise.summary(device).render())
    elif args.command == "e2e":
        from repro.experiments import e2e

        device = get_device(args.device)
        formats = args.formats
        if formats is not None and len(formats) == 1:
            formats = formats[0]  # lets "--formats all" hit the alias
        results = e2e.run_models(
            device, models=args.models, backends=args.backend,
            formats=formats if formats is not None else ("tucker",),
        )
        print(e2e.results_table(results, device).render())
        auto_table = e2e.auto_dispatch_summary(results, device)
        if auto_table is not None:
            print()
            print(auto_table.render())
        format_table = e2e.format_summary(results, device)
        if format_table is not None:
            print()
            print(format_table.render())
    elif args.command == "run":
        return _run_compiled(args)
    elif args.command == "serve":
        return _run_serve(args)
    elif args.command == "fleet":
        return _run_fleet(args)
    elif args.command == "calibrate":
        return _run_calibrate(args)
    elif args.command == "backends":
        return _run_backends(args)
    elif args.command == "oracle-gap":
        from repro.experiments import oracle_gap

        print(oracle_gap.run(get_device(args.device)).render())
    elif args.command == "ablations":
        from repro.experiments import ablations

        device = get_device(args.device)
        print(ablations.crsn_layout_ablation(device).render())
        print()
        print(ablations.c_split_ablation(device).render())
        print()
        print(ablations.top_fraction_ablation(device).render())
    elif args.command == "table2":
        from repro.experiments import table2

        print(table2.run().render())
    elif args.command == "table3":
        from repro.experiments import table3

        config = table3.Table3Config(budget=args.budget)
        print(table3.run(config).render())
    elif args.command == "budget-sweep":
        from repro.experiments import budget_sweep

        print(budget_sweep.run().render())
    elif args.command == "report":
        from repro.experiments.report import generate_report

        print(generate_report(include_e2e=not args.no_e2e))
    elif args.command == "codegen":
        from repro.kernels.base import ConvShape
        from repro.kernels.codegen import generate_tdc_kernel_source
        from repro.perfmodel.tiling import select_tiling

        c, n, h, w = args.shape
        shape = ConvShape(c=c, n=n, h=h, w=w)
        choice = select_tiling(shape, get_device(args.device), args.method)
        print(generate_tdc_kernel_source(shape, choice.tiling))
    elif args.command == "analyze":
        return _run_analyze(args)
    else:  # pragma: no cover - argparse enforces the choices
        raise SystemExit(f"unknown command {args.command!r}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
