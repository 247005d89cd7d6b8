"""Compile/execute split: numeric equivalence and the no-allocation
hot-path contract."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import backend_names, get_backend
from repro.codesign.pipeline import decompose_for_device
from repro.gpusim.device import A100
from repro.inference import compile_model, compile_plan, plan_model
from repro.inference.executable import (
    BufferArena,
    CompiledTuckerConv2d,
    ConvStage,
)
from repro.inference.plan import plan_tucker_model
from repro.kernels.base import reference_conv
from repro.kernels.cudnn import CuDNNWinogradKernel
from repro.nn.cp_conv import CPConv2d
from repro.nn.tt_conv import TTConv2d
from repro.models.arch_specs import LayerSpec, ModelSpec
from repro.models.introspection import trace_layer_sites
from repro.models.registry import build_model
from repro.nn.module import Module
from repro.nn.tucker_conv import TuckerConv2d

IMAGE_HW = (8, 8)
MODELS = ("resnet_tiny", "vgg_tiny")

def make_decomposed(name: str) -> Module:
    """A trainable preset with hardware-aware Tucker decomposition."""
    model = build_model(name, seed=0)
    decompose_for_device(model, A100, IMAGE_HW, budget=0.5, rank_step=2)
    return model.eval()


@pytest.fixture(scope="module", params=MODELS)
def decomposed(request):
    return request.param, make_decomposed(request.param)


# ---------------------------------------------------------------------------
# Numeric equivalence: Executable.run == Module.forward, every backend
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", list(backend_names()) + ["auto"])
def test_executable_matches_module_forward(decomposed, backend):
    name, model = decomposed
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3) + IMAGE_HW)
    ref = model.forward(x)
    exe = compile_model(
        model, A100, image_hw=IMAGE_HW, core_backend=backend,
        max_batch=2, model_name=name,
    )
    y = exe.run(x)
    np.testing.assert_allclose(y, ref, atol=1e-5, rtol=1e-5)
    # Second call through the same arena must reproduce exactly.
    np.testing.assert_array_equal(exe.run(x), y)


def test_executable_accepts_single_sample(decomposed):
    _, model = decomposed
    rng = np.random.default_rng(1)
    x = rng.standard_normal((3,) + IMAGE_HW)
    exe = compile_model(model, A100, image_hw=IMAGE_HW, max_batch=1)
    ref = model.forward(x[None])
    np.testing.assert_allclose(exe.run(x), ref, atol=1e-8)


def test_executable_partial_batches(decomposed):
    """Arena views must slice correctly for every batch <= max_batch."""
    _, model = decomposed
    rng = np.random.default_rng(2)
    exe = compile_model(model, A100, image_hw=IMAGE_HW, max_batch=3)
    for b in (1, 2, 3):
        x = rng.standard_normal((b, 3) + IMAGE_HW)
        np.testing.assert_allclose(
            exe.run(x), model.forward(x), atol=1e-8
        )


def test_executable_rejects_oversized_batch(decomposed):
    _, model = decomposed
    exe = compile_model(model, A100, image_hw=IMAGE_HW, max_batch=2)
    x = np.zeros((3, 3) + IMAGE_HW)
    with pytest.raises(ValueError, match="max_batch"):
        exe.run(x)


def test_executable_isolated_from_model_mutation():
    """Compiled weights are exports: training afterwards cannot leak."""
    model = make_decomposed("resnet_tiny")
    x = np.random.default_rng(3).standard_normal((1, 3) + IMAGE_HW)
    exe = compile_model(model, A100, image_hw=IMAGE_HW)
    before = exe.run(x).copy()
    for p in model.parameters():
        p.data += 1.0
    np.testing.assert_array_equal(exe.run(x), before)


def test_compile_respects_fixed_backend_dispatch():
    model = make_decomposed("resnet_tiny")
    exe = compile_model(
        model, A100, image_hw=IMAGE_HW, core_backend="cudnn-winograd"
    )
    tucker_sites = [
        s for s in exe.sites() if isinstance(s, CompiledTuckerConv2d)
    ]
    assert tucker_sites, "expected at least one compiled Tucker site"
    for site in tucker_sites:
        assert site.backend == "cudnn-winograd"
        # The backend shapes the plan; the host runs the one lowering.
        assert not hasattr(site, "kernel")
        assert isinstance(site.core_stage, ConvStage)
    assert exe.backend_counts() == {"cudnn-winograd": len(tucker_sites)}


def test_compiled_sites_are_inference_only():
    model = make_decomposed("resnet_tiny")
    exe = compile_model(model, A100, image_hw=IMAGE_HW)
    with pytest.raises(RuntimeError, match="inference-only"):
        exe.sites()[0].backward(np.zeros(1))


def test_executable_edge_geometries():
    """Even kernels (dense and factored), padded 1x1, stride 3,
    unpadded stride-2 CP/TT, a rectangular input — the direct strided
    windows must hold for every geometry."""
    from repro.nn.conv import Conv2d
    from repro.nn.module import Sequential

    model = Sequential(
        Conv2d(3, 8, 4, stride=2, padding=1, bias=True, seed=1),
        CPConv2d(8, 8, 3, rank=5, stride=2, padding=0, bias=True, seed=4),
        TTConv2d(8, 6, 3, rank1=2, rank2=3, stride=2, padding=0,
                 bias=True, seed=5),
        Conv2d(6, 6, 1, stride=2, padding=1, bias=True, seed=2),
        TuckerConv2d(6, 10, 3, rank_in=4, rank_out=5, stride=3,
                     padding=2, bias=True, seed=3),
        TuckerConv2d(10, 8, 2, rank_in=3, rank_out=4, stride=1,
                     padding=1, bias=True, seed=6),
    ).eval()
    x = np.random.default_rng(7).standard_normal((2, 3, 23, 29))
    ref = model.forward(x)
    exe = compile_model(
        model, A100, image_hw=(23, 29), core_backend="auto", max_batch=2
    )
    np.testing.assert_allclose(exe.run(x), ref, atol=1e-10)


def test_executable_strided_tucker_core():
    """A decomposed stride-2 conv computes only its strided core
    outputs, under the dispatched backend's plan."""
    from repro.compression.baselines import decompose_model

    model = build_model("resnet_tiny", seed=0)
    decompose_model(model, {"blocks.layer1.conv1": (6, 6)})
    model.eval()
    x = np.random.default_rng(8).standard_normal((2, 3, 9, 9))
    ref = model.forward(x)
    exe = compile_model(
        model, A100, image_hw=(9, 9), core_backend="tdc-model", max_batch=2
    )
    np.testing.assert_allclose(exe.run(x), ref, atol=1e-10)
    assert exe.backend_counts() == {"tdc-model": 1}


# ---------------------------------------------------------------------------
# The compiled path is never slower than the training-path forward
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("name", MODELS)
def test_compiled_run_not_slower_than_module_forward(name, n):
    """Interleaved best-of-7 host wall time at 32x32, one lane:
    ``Executable.run`` <= ``Module.forward`` of the same decomposed
    model (ROADMAP item 1's gate)."""
    import time

    hw = (32, 32)
    model = build_model(name, seed=0)
    decompose_for_device(model, A100, hw, budget=0.5, rank_step=2,
                         theta=0.0)
    model.eval()
    exe = compile_model(model, A100, image_hw=hw, max_batch=n, threads=1)
    x = np.random.default_rng(12).standard_normal((n, 3) + hw)
    best = {"run": float("inf"), "forward": float("inf")}
    for _ in range(7):
        for key, fn in (("run", exe.run), ("forward", model.forward)):
            t0 = time.perf_counter()
            fn(x)
            best[key] = min(best[key], time.perf_counter() - t0)
    assert best["run"] <= best["forward"], best


# ---------------------------------------------------------------------------
# No-allocation hot path + arena reuse
# ---------------------------------------------------------------------------

def test_wino_transforms_cached_per_dtype():
    """Regression (hot-path-alloc): the Winograd kernel used to cast
    the float64 transform masters on every call — three fresh arrays
    per call on float32 inputs.  The cast is now memoized per dtype."""
    from repro.kernels.cudnn import WINO_BT, wino_transforms

    f32 = wino_transforms(np.float32)
    assert wino_transforms(np.float32) is f32       # cached, no re-cast
    assert all(m.dtype == np.float32 for m in f32)
    f64 = wino_transforms(np.float64)
    assert f64[0] is not f32[0]
    np.testing.assert_array_equal(f64[0], WINO_BT)  # float64 passthrough

    # Numerics through the cached transforms still match the reference.
    shape_c, shape_n, hw = 3, 4, 8
    rng = np.random.default_rng(11)
    x = rng.standard_normal((shape_c, hw, hw)).astype(np.float32)
    w = rng.standard_normal((shape_n, shape_c, 3, 3)).astype(np.float32)
    kernel = CuDNNWinogradKernel()
    np.testing.assert_allclose(
        kernel.run(x, w), reference_conv(x, w), atol=1e-4
    )


@pytest.mark.parametrize("backend", ["auto", "tdc-model", "cudnn"])
def test_hot_path_allocates_nothing(backend, count_allocations):
    model = make_decomposed("resnet_tiny")
    exe = compile_model(
        model, A100, image_hw=IMAGE_HW, core_backend=backend, max_batch=2
    )
    x = np.random.default_rng(4).standard_normal((2, 3) + IMAGE_HW)
    exe.run(x)  # warm (first touch)
    assert count_allocations(lambda: exe.run(x)) == {}


def test_arena_buffers_are_reused_across_calls(decomposed):
    _, model = decomposed
    exe = compile_model(model, A100, image_hw=IMAGE_HW, max_batch=2)
    x = np.random.default_rng(5).standard_normal((2, 3) + IMAGE_HW)
    exe.run(x)
    ids_before = {n: id(exe.arena.get(n)) for n in exe.arena.names()}
    site_outs = [id(s.out) for s in exe.sites()]
    exe.run(x)
    exe.run(x)
    assert ids_before == {n: id(exe.arena.get(n)) for n in exe.arena.names()}
    assert site_outs == [id(s.out) for s in exe.sites()]
    assert exe.requests_served == 3


def test_arena_rejects_duplicate_names():
    arena = BufferArena()
    arena.allocate("a", (2, 2))
    with pytest.raises(ValueError, match="already allocated"):
        arena.allocate("a", (2, 2))
    assert arena.n_buffers == 1
    # Default arena dtype is float32, the device execution dtype.
    assert arena.nbytes == 4 * 4


# ---------------------------------------------------------------------------
# reference_conv dtype preservation (satellite)
# ---------------------------------------------------------------------------

def test_reference_conv_preserves_float32():
    rng = np.random.default_rng(0)
    x64 = rng.standard_normal((4, 6, 5))
    w64 = rng.standard_normal((3, 4, 3, 3))
    y64 = reference_conv(x64, w64)
    assert y64.dtype == np.float64
    y32 = reference_conv(x64.astype(np.float32), w64.astype(np.float32))
    assert y32.dtype == np.float32
    np.testing.assert_allclose(y32, y64, atol=1e-4)


def test_reference_conv_promotes_non_float():
    x = np.ones((2, 4, 4), dtype=np.int64)
    w = np.ones((2, 2, 3, 3), dtype=np.int64)
    assert reference_conv(x, w).dtype == np.float64


# ---------------------------------------------------------------------------
# Fail-fast (satellite): empty-core plans and unmatched compiles
# ---------------------------------------------------------------------------

def _pointwise_only_spec() -> ModelSpec:
    spec = ModelSpec("pointwise_only")
    spec.layers.append(LayerSpec("pw", "conv", 64, 64, 8, 8, 1, 1, 0))
    spec.layers.append(LayerSpec("fc", "fc", 64, 10))
    return spec


def test_plan_tucker_model_rejects_undecomposable_spec():
    from repro.codesign.rank_selection import RankPlan

    empty_plan = RankPlan(
        decisions=[], budget=0.5, theta=0.15, device_name="A100"
    )
    with pytest.raises(ValueError, match="no decomposable conv"):
        plan_tucker_model(_pointwise_only_spec(), empty_plan, A100)


def test_plan_model_rejects_convless_model():
    from repro.nn.layers import Flatten, Linear
    from repro.nn.module import Sequential

    model = Sequential(Flatten(), Linear(3 * 8 * 8, 4))
    with pytest.raises(ValueError, match="no conv layers"):
        plan_model(model, A100, IMAGE_HW)


def test_compile_plan_rejects_mismatched_plan():
    resnet = make_decomposed("resnet_tiny")
    vgg = make_decomposed("vgg_tiny")
    plan = plan_model(resnet, A100, IMAGE_HW)
    with pytest.raises(ValueError, match="do not bind"):
        compile_plan(plan, vgg, A100, image_hw=IMAGE_HW)


def test_compile_plan_rejects_uncovered_sites():
    model = make_decomposed("resnet_tiny")
    plan = plan_model(model, A100, IMAGE_HW)
    plan.kernels = [k for k in plan.kernels if k.kind != "core"]
    with pytest.raises(ValueError, match="does not cover"):
        compile_plan(plan, model, A100, image_hw=IMAGE_HW)


def test_compile_model_bad_max_batch():
    model = make_decomposed("resnet_tiny")
    with pytest.raises(ValueError, match="max_batch"):
        compile_model(model, A100, image_hw=IMAGE_HW, max_batch=0)


# ---------------------------------------------------------------------------
# plan_model structure
# ---------------------------------------------------------------------------

def test_plan_model_names_round_trip_to_modules(decomposed):
    name, model = decomposed
    plan = plan_model(model, A100, IMAGE_HW, model_name=name)
    sites = {s.name: s for s in trace_layer_sites(model, IMAGE_HW)}
    assert plan.model_name == name
    for k in plan.kernels:
        if k.kind == "core":
            site = sites[k.layer[: -len(".core")]]
            assert isinstance(site.module, TuckerConv2d)
            assert k.backend in backend_names()
            assert k.latency > 0
        elif k.layer.endswith((".pw1", ".pw2")):
            assert isinstance(sites[k.layer[:-4]].module, TuckerConv2d)
        else:
            assert k.layer in sites
    n_tucker = sum(1 for s in sites.values() if s.is_tucker)
    assert sum(1 for k in plan.kernels if k.kind == "core") == n_tucker


def test_backend_kernel_factory_all_registered():
    """Every builtin backend materializes a runnable kernel matching
    its reference conv."""
    from repro.kernels.base import ConvShape

    rng = np.random.default_rng(6)
    shape = ConvShape(c=4, n=4, h=6, w=6, r=3, s=3)
    x = rng.standard_normal((4, 6, 6))
    w = rng.standard_normal((4, 4, 3, 3))
    ref = reference_conv(x, w)
    for name in backend_names():
        backend = get_backend(name)
        if not backend.supports(shape, A100):
            continue
        kernel = backend.kernel(shape, A100)
        np.testing.assert_allclose(kernel.run(x, w), ref, atol=1e-6)
