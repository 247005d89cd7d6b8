"""Fused backend: correctness matrix, backend dispatch, and the
fused-planned site running its format's stage list."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import (
    DEPTHWISE_BASELINE,
    backend_names,
    dispatch_core,
    dispatch_dwcore,
    get_backend,
)
from repro.gpusim.device import A100, get_device
from repro.inference import compile_model
from repro.inference.executable import CompiledFusedSite
from repro.kernels.base import ConvShape
from repro.kernels.fused import (
    FusedTiling,
    fused_core_launch,
    fused_smem_bytes,
    select_fused_tiling,
)
from repro.nn.cp_conv import CPConv2d
from repro.nn.module import Module, Sequential
from repro.nn.tt_conv import TTConv2d
from repro.nn.tucker_conv import TuckerConv2d

RTX = get_device("2080ti")

def make_site(fmt: str, k: int, stride: int, padding: int) -> Module:
    if fmt == "tucker":
        mod = TuckerConv2d(6, 8, k, rank_in=3, rank_out=4,
                           stride=stride, padding=padding, seed=1)
    elif fmt == "cp":
        mod = CPConv2d(6, 8, k, rank=4,
                       stride=stride, padding=padding, seed=2)
    else:
        mod = TTConv2d(6, 8, k, rank1=2, rank2=2,
                       stride=stride, padding=padding, seed=3)
    return Sequential(mod).eval()


# ---------------------------------------------------------------------------
# The correctness sweep matrix: the one stage lowering under a fused
# plan and under a per-stage plan, both against Module.forward, across
# stride / padding / kernel size / format.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fmt", ["tucker", "cp", "tt"])
@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, "same"])
def test_fused_matches_per_stage_and_forward(fmt, k, stride, padding):
    pad = (k - 1) // 2 if padding == "same" else padding
    model = make_site(fmt, k, stride, pad)
    hw = 9
    x = np.random.default_rng(0).standard_normal((2, 6, hw, hw))
    ref = model.forward(x)
    fused_exe = compile_model(
        model, A100, image_hw=(hw, hw), in_channels=6,
        core_backend="fused", max_batch=2,
    )
    # tdc-model offers no dwcore hook, so every format compiles its
    # per-stage site class under it.
    staged_exe = compile_model(
        model, A100, image_hw=(hw, hw), in_channels=6,
        core_backend="tdc-model", max_batch=2,
    )
    assert isinstance(fused_exe.sites()[0], CompiledFusedSite)
    assert not isinstance(staged_exe.sites()[0], CompiledFusedSite)
    y_fused = fused_exe.run(x)
    y_staged = staged_exe.run(x)
    assert np.max(np.abs(y_fused - ref)) <= 1e-9
    assert np.max(np.abs(y_staged - ref)) <= 1e-9
    assert np.max(np.abs(y_fused - y_staged)) <= 1e-9


# ---------------------------------------------------------------------------
# Backend registration and dispatch
# ---------------------------------------------------------------------------

def test_fused_backend_registered():
    assert "fused" in backend_names()
    b = get_backend("fused")
    assert b.supports(ConvShape(8, 16, 8, 8), A100)


def test_auto_dispatch_selects_fused_where_traffic_dominates():
    # Large mid_out over a small spatial extent: the per-stage paths
    # pay intermediate z1/z2 round-trips the fused chain never issues.
    shape = ConvShape(c=8, n=64, h=4, w=4, r=3, s=3)
    for dev in (A100, RTX):
        d = dispatch_core(shape, dev)
        assert d.backend == "fused", (dev.name, d.backend)


def test_dispatch_dwcore_baseline_and_fixed():
    shape = ConvShape(c=8, n=8, h=8, w=8, r=3, s=3)
    baseline = 1e-4
    # Fixed backend without the dwcore hook -> depthwise baseline.
    d = dispatch_dwcore(shape, A100, baseline, backend="tdc-model")
    assert d.backend == DEPTHWISE_BASELINE
    assert d.latency == baseline
    # Fixed fused backend -> its offer, even if slower than baseline.
    d = dispatch_dwcore(shape, A100, baseline, backend="fused")
    assert d.backend == "fused"
    # Auto never does worse than the baseline.
    d = dispatch_dwcore(shape, A100, baseline, backend="auto")
    assert d.latency <= baseline


def test_fused_launch_drops_intermediate_traffic():
    shape = ConvShape(c=16, n=32, h=16, w=16, r=3, s=3)
    tiling = select_fused_tiling(shape, A100)
    assert tiling is not None
    launch = fused_core_launch(shape, A100, tiling)
    assert launch.write_bytes == 0  # output drains through pw2
    assert launch.smem_per_block == fused_smem_bytes(shape, tiling)
    assert launch.smem_per_block <= A100.shared_mem_per_block


def test_select_fused_tiling_respects_smem_budget():
    for c, n, hw in ((64, 64, 56), (128, 128, 28), (256, 256, 14)):
        shape = ConvShape(c=c, n=n, h=hw, w=hw, r=3, s=3)
        for dev in (A100, RTX):
            t = select_fused_tiling(shape, dev)
            assert t is not None
            assert fused_smem_bytes(shape, t) <= dev.shared_mem_per_block


# ---------------------------------------------------------------------------
# Compiled binding: a fused plan runs its format's stage list
# ---------------------------------------------------------------------------

def _deep_model():
    return Sequential(
        TuckerConv2d(8, 16, 3, rank_in=4, rank_out=6, padding=1, seed=1),
        CPConv2d(16, 16, 3, rank=6, padding=1, seed=2),
        TTConv2d(16, 12, 3, rank1=2, rank2=3, padding=1, seed=3),
    ).eval()


def test_fused_plan_compiles_format_stage_lists():
    model = _deep_model()
    fused_exe = compile_model(
        model, A100, image_hw=(16, 16), in_channels=8,
        core_backend="fused", max_batch=2,
    )
    staged_exe = compile_model(
        model, A100, image_hw=(16, 16), in_channels=8,
        core_backend="tdc-model", max_batch=2,
    )
    assert all(isinstance(s, CompiledFusedSite) for s in fused_exe.sites())
    assert [s.backend for s in fused_exe.sites()] == ["fused"] * 3
    assert fused_exe.backend_counts() != staged_exe.backend_counts()
    # Same lowering: same stage types, same arena, bit-identical output.
    for fused, staged in zip(fused_exe.sites(), staged_exe.sites()):
        assert fused.format == staged.format
        assert [type(st) for st in fused.stages] == \
            [type(st) for st in staged.stages]
    assert fused_exe.arena.names() == staged_exe.arena.names()
    assert fused_exe.arena.nbytes == staged_exe.arena.nbytes
    x = np.random.default_rng(4).standard_normal((2, 8, 16, 16))
    np.testing.assert_array_equal(fused_exe.run(x), staged_exe.run(x))


def test_auto_compile_binds_fused_site_end_to_end():
    # Geometry chosen so auto dispatch picks fused for the core
    # (see test_auto_dispatch_selects_fused_where_traffic_dominates)
    # with zero fused-specific planner plumbing.
    model = Sequential(
        TuckerConv2d(16, 96, 3, rank_in=8, rank_out=64, padding=1, seed=5),
    ).eval()
    exe = compile_model(
        model, A100, image_hw=(4, 4), in_channels=16,
        core_backend="auto", max_batch=1,
    )
    assert exe.backend_counts().get("fused", 0) >= 1
    assert isinstance(exe.sites()[0], CompiledFusedSite)
    x = np.random.default_rng(6).standard_normal((1, 16, 4, 4))
    assert np.max(np.abs(exe.run(x) - model.forward(x))) <= 1e-9


def test_fused_hot_path_allocates_nothing(count_allocations):
    model = _deep_model()
    exe = compile_model(
        model, A100, image_hw=(16, 16), in_channels=8,
        core_backend="fused", max_batch=2,
    )
    x = np.random.default_rng(7).standard_normal((2, 8, 16, 16))
    exe.run(x)  # warm (first touch)
    assert count_allocations(lambda: exe.run(x)) == {}


def test_fused_calibration_sample_and_attribution():
    from repro.calibration.runner import run_calibration

    model = _deep_model()
    exe = compile_model(
        model, A100, image_hw=(16, 16), in_channels=8,
        core_backend="fused", max_batch=1,
    )
    run = run_calibration(exe, warmup=0, repeats=1)
    fused_samples = [s for s in run.samples if s.backend == "fused"]
    assert len(fused_samples) == 3
    for s in fused_samples:
        assert s.predicted_s > 0 and s.measured_s > 0
    # Each sample times the site's dw/conv core stage; the chain's
    # pw1/pw2 raws stay in the aux bucket, which stays non-negative.
    assert run.core_predicted_s > 0
    assert run.aux_predicted_s >= 0


def test_fused_tiling_str_roundtrip():
    t = FusedTiling(8, 16, 4)
    assert str(t) == "fused(tb=8,tw=16,tc=4)"
    assert get_backend("fused").tiling(ConvShape(8, 8, 8, 8), A100)
