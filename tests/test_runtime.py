"""Parallel execution engine: worker pool, shard planning, and the
bit-identical-to-serial contract across formats, backends, and batch
sizes."""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.inference.executable as executable_mod
from repro.codesign.pipeline import decompose_for_device
from repro.gpusim.device import A100
from repro.inference import compile_model, compile_plan, plan_model
from repro.models.registry import build_model
from repro.nn.cp_conv import CPConv2d
from repro.nn.module import Module, Sequential
from repro.nn.tt_conv import TTConv2d
from repro.nn.tucker_conv import TuckerConv2d
from repro.perfmodel.parallel import (
    FORK_JOIN_EQUIV_S,
    estimated_parallel_latency,
    parallel_speedup_estimate,
    should_parallelize,
)
from repro.runtime.engine import MIN_BATCH_SHARD, plan_batch_shards
from repro.runtime.pool import (
    MAX_WORKERS,
    WorkerPool,
    _reset_pool_for_tests,
    default_threads,
    get_pool,
    pool_stats,
    resolve_threads,
)

def force_parallel(monkeypatch):
    """Make the compile-time gate say yes for every site, so shard
    machinery is exercised even on tiny test geometries."""
    monkeypatch.setattr(
        executable_mod, "should_parallelize",
        lambda lat, threads: (threads > 1, 99.0),
    )


def make_site(fmt: str, hw: int = 12) -> Module:
    if fmt == "tucker":
        mod = TuckerConv2d(6, 8, 3, rank_in=3, rank_out=4,
                           stride=1, padding=1, seed=1)
    elif fmt == "cp":
        mod = CPConv2d(6, 8, 3, rank=4, stride=1, padding=1, seed=2)
    else:
        mod = TTConv2d(6, 8, 3, rank1=2, rank2=2,
                       stride=1, padding=1, seed=3)
    return Sequential(mod).eval()


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------

def test_run_tasks_returns_results_in_order():
    pool = WorkerPool()
    pool.ensure_workers(3)
    results = pool.run_tasks([lambda i=i: i * i for i in range(8)])
    assert results == [i * i for i in range(8)]


def test_run_tasks_caller_participates():
    pool = WorkerPool()  # zero workers: the caller must do everything
    ran_in = []
    results = pool.run_tasks([
        lambda: ran_in.append(threading.current_thread().name) or 1,
    ])
    assert results == [1]
    assert ran_in == [threading.current_thread().name]


def test_run_tasks_exception_propagates_after_all_complete():
    pool = WorkerPool()
    pool.ensure_workers(2)
    done = []

    def ok(i):
        done.append(i)
        return i

    with pytest.raises(RuntimeError, match="shard boom"):
        pool.run_tasks([
            lambda: (_ for _ in ()).throw(RuntimeError("shard boom")),
            lambda: ok(1),
            lambda: ok(2),
        ])
    # A failed shard never leaves another shard still writing: every
    # surviving task finished before the join re-raised.
    assert sorted(done) == [1, 2]


def test_task_counter_exact_under_contention():
    """Regression (lock-discipline): ``tasks_executed`` was bumped
    outside the pool lock, so concurrent ``run_tasks`` callers could
    lose updates.  With the guard the count is exact."""
    pool = WorkerPool()
    pool.ensure_workers(2)
    callers, rounds, per_round = 8, 25, 3
    barrier = threading.Barrier(callers)

    def hammer():
        barrier.wait()
        for _ in range(rounds):
            pool.run_tasks([lambda: None] * per_round)

    threads = [threading.Thread(target=hammer) for _ in range(callers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert pool.tasks_executed == callers * rounds * per_round


def test_ensure_workers_caps_at_max():
    pool = WorkerPool()
    pool.ensure_workers(MAX_WORKERS + 50)
    assert pool.n_workers == MAX_WORKERS


def test_get_pool_is_a_process_singleton():
    _reset_pool_for_tests()
    a = get_pool(2)
    b = get_pool()
    assert a is b
    assert pool_stats()["workers"] == 2


def test_default_threads_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_NUM_THREADS", "3")
    assert default_threads() == 3
    monkeypatch.setenv("REPRO_NUM_THREADS", "999")
    assert default_threads() == MAX_WORKERS
    monkeypatch.setenv("REPRO_NUM_THREADS", "0")
    with pytest.raises(ValueError):
        default_threads()
    monkeypatch.setenv("REPRO_NUM_THREADS", "lots")
    with pytest.raises(ValueError):
        default_threads()


def test_resolve_threads():
    assert resolve_threads(1) == 1
    assert resolve_threads(4) == 4
    assert resolve_threads(MAX_WORKERS + 9) == MAX_WORKERS
    with pytest.raises(ValueError):
        resolve_threads(0)
    assert resolve_threads(None) == default_threads()


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------

def test_batch_shards_cover_and_never_singleton():
    for batch in range(1, 33):
        for threads in (2, 3, 4, 8):
            shards = plan_batch_shards(batch, threads)
            if batch < 2 * MIN_BATCH_SHARD:
                assert shards == []
                continue
            assert len(shards) <= threads
            assert shards[0][0] == 0 and shards[-1][1] == batch
            for (lo, hi), (nlo, _) in zip(shards, shards[1:]):
                assert hi == nlo
            assert all(hi - lo >= MIN_BATCH_SHARD for lo, hi in shards)


def test_batch_shards_off_for_serial():
    assert plan_batch_shards(16, 1) == []


# ---------------------------------------------------------------------------
# The compile-time perf-model gate
# ---------------------------------------------------------------------------

def test_threads_one_is_always_serial():
    go, est = should_parallelize(1.0, 1)
    assert not go and est == 1.0


def test_large_sites_shard_small_sites_do_not():
    go_big, est_big = should_parallelize(1e-5, 4)
    assert go_big and est_big > 1.2
    go_small, _ = should_parallelize(1e-7, 4)
    assert not go_small


def test_parallel_latency_model_shape():
    # More lanes help until the fork/join term dominates.
    assert estimated_parallel_latency(1e-5, 4) < 1e-5
    lat = 8 * FORK_JOIN_EQUIV_S
    assert parallel_speedup_estimate(lat, 2) > parallel_speedup_estimate(
        lat, MAX_WORKERS
    )


# ---------------------------------------------------------------------------
# Concurrent determinism: parallel == serial, bit for bit
# ---------------------------------------------------------------------------

CASES = [
    ("tucker", "tdc-model"),
    ("tucker", "cudnn"),
    ("tucker", "fused"),
    ("cp", "auto"),
    ("cp", "fused"),
    ("tt", "auto"),
    ("tt", "fused"),
]


@pytest.mark.parametrize("fmt,backend", CASES)
def test_parallel_bit_identical_to_serial(fmt, backend, monkeypatch):
    force_parallel(monkeypatch)
    hw = 12
    model = make_site(fmt, hw)
    kwargs = dict(
        image_hw=(hw, hw), in_channels=6, core_backend=backend,
        max_batch=16,
    )
    serial = compile_model(model, A100, threads=1, **kwargs)
    par = compile_model(model, A100, threads=4, **kwargs)
    assert serial.threads == 1 and par.threads == 4
    assert par.parallel_report()["parallel_sites"] >= 1
    rng = np.random.default_rng(7)
    for n in (1, 4, 16):
        x = rng.standard_normal((n, 6, hw, hw)).astype(serial.dtype)
        np.testing.assert_array_equal(
            serial.run(x), par.run(x),
            err_msg=f"{fmt}/{backend} deviates from serial at batch {n}",
        )


def test_whole_model_parallel_bit_identical(monkeypatch):
    force_parallel(monkeypatch)
    model = build_model("resnet_tiny", seed=0)
    decompose_for_device(model, A100, (8, 8), budget=0.5, rank_step=2)
    model.eval()
    serial = compile_model(model, A100, image_hw=(8, 8), max_batch=16,
                           threads=1)
    par = compile_model(model, A100, image_hw=(8, 8), max_batch=16,
                        threads=3)
    rng = np.random.default_rng(11)
    for n in (1, 4, 16):
        x = rng.standard_normal((n, 3, 8, 8)).astype(serial.dtype)
        np.testing.assert_array_equal(serial.run(x), par.run(x))


def test_perf_model_selects_parallel_sites_organically():
    # No gate patching: the real fork/join model must shard the preset
    # factored sites at realistic geometry.
    model = build_model("resnet_tiny", seed=0)
    decompose_for_device(model, A100, (32, 32), budget=0.5, rank_step=2,
                         theta=0.0)
    model.eval()
    par = compile_model(model, A100, image_hw=(32, 32), max_batch=4,
                        threads=4)
    rep = par.parallel_report()
    assert rep["parallel_sites"] >= 1
    serial = compile_model(model, A100, image_hw=(32, 32), max_batch=4,
                           threads=1)
    x = np.random.default_rng(3).standard_normal((4, 3, 32, 32)).astype(
        serial.dtype
    )
    np.testing.assert_array_equal(serial.run(x), par.run(x))


# ---------------------------------------------------------------------------
# Zero-allocation parallel hot path
# ---------------------------------------------------------------------------

def test_parallel_hot_path_allocates_nothing(monkeypatch, count_allocations):
    force_parallel(monkeypatch)
    model = build_model("resnet_tiny", seed=0)
    decompose_for_device(model, A100, (8, 8), budget=0.5, rank_step=2)
    model.eval()
    exe = compile_model(model, A100, image_hw=(8, 8), max_batch=8,
                        threads=4)
    assert exe.parallel_report()["parallel_sites"] >= 1
    rng = np.random.default_rng(9)
    for n in (1, 8):  # serial fallback and batch shards
        x = rng.standard_normal((n, 3, 8, 8)).astype(exe.dtype)
        exe.run(x)  # warm (first touch)
        counts = count_allocations(lambda: exe.run(x))
        assert counts == {}, (n, counts)


# ---------------------------------------------------------------------------
# Plan annotation and introspection
# ---------------------------------------------------------------------------

def _traced_plan(model, hw):
    return plan_model(model, A100, (hw, hw), in_channels=6)


def test_threads_one_leaves_plan_untouched():
    model = make_site("tucker", 12)
    plan = _traced_plan(model, 12)
    exe = compile_plan(plan, model, A100, image_hw=(12, 12),
                       in_channels=6, threads=1)
    assert exe.plan is plan
    assert exe.plan.parallel_kernels() == 0
    assert all(s.pool is None for s in exe.sites())


def test_parallel_compile_annotates_a_plan_copy(monkeypatch):
    force_parallel(monkeypatch)
    model = make_site("tucker", 12)
    plan = _traced_plan(model, 12)
    exe = compile_plan(plan, model, A100, image_hw=(12, 12),
                       in_channels=6, max_batch=8, threads=3)
    assert exe.plan is not plan
    assert exe.plan.parallel_kernels() >= 1
    # The planner's plan (cacheable) stays untouched.
    assert plan.parallel_kernels() == 0
    assert all(not k.parallel for k in plan.kernels)


def test_parallel_compile_adds_no_arena_bytes(monkeypatch):
    force_parallel(monkeypatch)
    model = make_site("tucker", 12)
    kwargs = dict(image_hw=(12, 12), in_channels=6,
                  core_backend="tdc-model", max_batch=8)
    serial = compile_model(model, A100, threads=1, **kwargs)
    par = compile_model(model, A100, threads=3, **kwargs)
    ser_rep, par_rep = serial.arena_report(), par.arena_report()
    # Shards write disjoint sample slices of the same buffers, the
    # shared stage scratch included: no per-lane carve-outs.
    assert par_rep["arena_bytes"] == ser_rep["arena_bytes"]
    assert par.arena.names() == serial.arena.names()
    assert par_rep["stage_scratch_bytes"] > 0
    assert par_rep["workers"] == 3


def test_parallel_report_contents(monkeypatch):
    force_parallel(monkeypatch)
    model = make_site("tucker", 12)
    exe = compile_model(model, A100, image_hw=(12, 12), in_channels=6,
                        core_backend="tdc-model", max_batch=8, threads=3)
    rep = exe.parallel_report()
    assert rep["threads"] == 3
    assert rep["parallel_sites"] == 1 and rep["serial_sites"] == 0
    (site,) = rep["sites"].values()
    assert site["est_speedup"] > 1.0
    assert site["site_latency_s"] > 0


# ---------------------------------------------------------------------------
# Stage thread-safety contract: concurrent runs on disjoint samples
# ---------------------------------------------------------------------------

def test_fused_concurrent_run_disjoint_scratch():
    """Concurrent stage-list runs on disjoint sample slices of one
    site's buffers (the shared stage scratch included) never corrupt
    each other — the contract batch shards rely on, here under a fused
    plan (which runs the format's stage list)."""
    model = make_site("tucker", 12)
    exe = compile_model(model, A100, image_hw=(12, 12), in_channels=6,
                        core_backend="fused", max_batch=8, threads=1)
    (site,) = exe.sites()
    x = np.random.default_rng(1).standard_normal((8, 6, 12, 12))
    ref = exe.run(x).copy()
    shards = [(0, 2), (2, 4), (4, 6), (6, 8)]
    for _ in range(5):  # several rounds to give corruption a chance
        site.out.fill(0.0)
        barrier = threading.Barrier(len(shards))

        def worker(lo, hi):
            barrier.wait()
            site._run(x, lo, hi)

        threads = [
            threading.Thread(target=worker, args=shard) for shard in shards
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        np.testing.assert_array_equal(site.out, ref)


def test_fused_bound_scratch_is_exposed():
    """A fused-planned site's stages bind the executable's one stage
    scratch, which the arena exposes by name (so the aliasing probe
    sees it)."""
    from repro.inference.executable import STAGE_SCRATCH

    exe = compile_model(make_site("tucker", 12), A100, image_hw=(12, 12),
                        in_channels=6, core_backend="fused", max_batch=4)
    (site,) = exe.sites()
    scratch = exe.arena.get(STAGE_SCRATCH)
    assert site.backend == "fused"
    assert np.shares_memory(site.core_stage.cols, scratch)
    assert exe.arena_report()["stage_scratch_bytes"] == scratch.nbytes


# ---------------------------------------------------------------------------
# Serving integration: sessions and fleets share the process pool
# ---------------------------------------------------------------------------

def test_session_with_threads_matches_serial(monkeypatch):
    from repro.serving import SessionRegistry

    force_parallel(monkeypatch)
    registry = SessionRegistry()
    try:
        ser = registry.create(
            "resnet_tiny", A100, image_hw=(8, 8), max_batch=4,
            threads=1, name="serial",
        )
        par = registry.create(
            "resnet_tiny", A100, image_hw=(8, 8), max_batch=4,
            threads=3, name="parallel",
        )
        assert par.executable.threads == 3
        assert par.executable.parallel_report()["parallel_sites"] >= 1
        x = np.random.default_rng(2).standard_normal((3, 8, 8))
        np.testing.assert_array_equal(
            ser.infer(x, timeout=60.0), par.infer(x, timeout=60.0)
        )
    finally:
        registry.close_all()


def test_fleet_replicas_share_one_pool(monkeypatch):
    from repro.serving.fleet import deploy_fleet

    force_parallel(monkeypatch)
    _reset_pool_for_tests()
    fleet = deploy_fleet(
        "resnet_tiny", [A100], replicas_per_device=2, image_hw=(8, 8),
        max_batch=4, fallback_budget=None, threads=3,
    )
    try:
        x = np.random.default_rng(4).standard_normal((3, 8, 8))
        y = fleet.infer(x, timeout=60.0)
        assert y.shape[-1] == 10
        # 2 replicas, one shared pool: threads - 1 workers, not 2x.
        assert pool_stats()["workers"] == 2
    finally:
        fleet.close()
