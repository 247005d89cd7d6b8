"""Compile/execute split: numeric equivalence and the no-allocation
hot-path contract."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.backends import backend_names
from repro.codesign.pipeline import decompose_for_device
from repro.gpusim.device import A100
from repro.inference import compile_model, compile_plan, plan_model
from repro.inference.executable import (
    STAGE_SCRATCH,
    BufferArena,
    CompiledTuckerConv2d,
    ConvStage,
    DepthwiseStage,
    _arrays,
)
from repro.inference.plan import plan_tucker_model
from repro.kernels.base import reference_conv
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
    """Compiled weights are exports: training afterwards cannot leak —
    neither through parameters nor through the BatchNorm running
    statistics folded into them (buffers, not parameters)."""
    from repro.nn.layers import BatchNorm2d

    model = make_decomposed("resnet_tiny")
    x = np.random.default_rng(3).standard_normal((1, 3) + IMAGE_HW)
    exe = compile_model(model, A100, image_hw=IMAGE_HW)
    before = exe.run(x).copy()
    for p in model.parameters():
        p.data += 1.0
    np.testing.assert_array_equal(exe.run(x), before)
    bns = [m for m in model.modules() if isinstance(m, BatchNorm2d)]
    assert bns
    for bn in bns:
        bn.running_mean[...] += 1.0
        bn.running_var[...] *= 3.0
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

@pytest.mark.parametrize("name,n,formats", [
    pytest.param(name, n, formats, id=f"{name}-{n}{suffix}")
    for formats, suffix in ((("tucker",), ""), ("all", "-all"))
    for name in MODELS for n in (1, 8)
])
def test_compiled_run_not_slower_than_module_forward(name, n, formats):
    """Interleaved best-of-7 host wall time at 32x32, one lane:
    ``Executable.run`` <= ``Module.forward`` of the same decomposed
    model.  ``formats="all"`` brings CP/TT sites, so the ``dw`` stage
    and TT's folded group-sum are gated too."""
    import time

    hw = (32, 32)
    model = build_model(name, seed=0)
    decompose_for_device(model, A100, hw, budget=0.5, rank_step=2,
                         theta=0.0, formats=formats)
    model.eval()
    exe = compile_model(model, A100, image_hw=hw, max_batch=n, threads=1)
    if formats == "all":
        assert {s.format for s in exe.sites()} & {"cp", "tt"}
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

@pytest.mark.parametrize("backend", ["auto", "tdc-model", "cudnn"])
def test_hot_path_allocates_nothing(backend, count_allocations):
    model = make_decomposed("resnet_tiny")
    exe = compile_model(
        model, A100, image_hw=IMAGE_HW, core_backend=backend, max_batch=2
    )
    x = np.random.default_rng(4).standard_normal((2, 3) + IMAGE_HW)
    exe.run(x)  # warm (first touch)
    assert count_allocations(lambda: exe.run(x)) == {}


#: Bytes of Python objects (array views, slice tuples) a warm run may
#: create and free on top of the array it returns.
RUN_OBJECT_SLACK = 8 * 1024

#: hostbench's two deploys at 32x32: ``(formats, max_batch)`` per model.
HOSTBENCH_DEPLOYS = {
    "resnet18_slim": (("tucker",), 1),
    "vgg16_slim": ("all", 8),
}


@pytest.fixture(scope="module")
def hostbench_deploy():
    """``name -> (model, executable)`` of hostbench's deploys, built
    once per module."""
    built = {}

    def get(name):
        if name not in built:
            formats, n = HOSTBENCH_DEPLOYS[name]
            model = build_model(name, seed=0)
            decompose_for_device(model, A100, (32, 32), budget=0.5,
                                 rank_step=4, formats=formats)
            built[name] = model.eval(), compile_model(
                model, A100, image_hw=(32, 32), max_batch=n, threads=1)
        return built[name]

    return get


@pytest.mark.parametrize("name,batch", [
    pytest.param("resnet18_slim", 1, id="resnet18_slim-formats0-1"),
    pytest.param("vgg16_slim", 8, id="vgg16_slim-all-8"),
    pytest.param("vgg16_slim", 1, id="vgg16_slim-all-8-batch1"),
])
def test_warm_run_allocates_only_its_result(hostbench_deploy, name, batch):
    """tracemalloc over a warm ``Executable.run`` on hostbench's two
    deploys, and on a partial batch of the batch-8 one (the pitched
    ``dw`` compaction copies ``[lo:hi]``): its peak may exceed the
    returned array only by a few Python objects — no activation-sized
    temporary (BatchNorm, ReLU mask, pool argmax, residual sum, pitched
    rows) anywhere.  NumPy's ufunc loop buffer (``np.getbufsize()``
    elements per operand, allocated and freed inside one broadcast or
    strided call, the same size for any activation) is shrunk to its
    minimum while measuring."""
    import tracemalloc

    _, exe = hostbench_deploy(name)
    x = np.random.default_rng(13).standard_normal((batch, 3, 32, 32))
    exe.run(x)  # warm
    bufsize = np.setbufsize(16)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        y = exe.run(x)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    assert peak - y.nbytes <= RUN_OBJECT_SLACK, (peak, y.nbytes)


def test_stride1_windows_are_pitched_inside_their_plane(hostbench_deploy):
    """On hostbench's deploys every stride-1 ``conv``/``dw`` stage takes
    its windows from the flattened padded plane and every strided one
    keeps the 2-D view.  A pitched view is ``as_strided`` and nothing
    bounds it, so its first sample must lie inside its source's first
    sample."""
    from numpy.lib.array_utils import byte_bounds

    seen = set()
    for name in HOSTBENCH_DEPLOYS:
        model, exe = hostbench_deploy(name)
        modules = dict(model.named_modules())
        for site in exe.sites():
            stride = modules[site.site_name].stride
            for stage in site.stages:
                if not isinstance(stage, (ConvStage, DepthwiseStage)):
                    continue
                kind = "conv" if isinstance(stage, ConvStage) else "dw"
                seen.add((kind, stride, stage.layout))
                assert stage.layout == ("pitched" if stride == 1
                                        else "windows"), site.site_name
                if stage.layout == "pitched":
                    lo, hi = byte_bounds(stage.win[0])
                    base_lo, base_hi = byte_bounds(stage.src[0])
                    assert base_lo <= lo and hi <= base_hi, site.site_name
    assert seen == {("conv", 1, "pitched"), ("dw", 1, "pitched"),
                    ("conv", 2, "windows")}


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


def test_arena_shares_the_slab_and_counts_each_byte_once(decomposed):
    """Activations whose lifetimes do not overlap share the slab, so
    the arena holds fewer bytes than its buffers span, and
    ``arena_bytes`` counts the slab once plus the private buffers (the
    padded inputs and the stage scratch), which share no byte."""
    _, model = decomposed
    exe = compile_model(model, A100, image_hw=IMAGE_HW, max_batch=2)
    arena = exe.arena
    slabbed = [n for n in arena.names()
               if np.shares_memory(arena.get(n), arena.slab)]
    private = [arena.get(n) for n in arena.names() if n not in slabbed]
    assert slabbed and all(arena.border(n) is None for n in slabbed)
    assert all(arena.border(n) is not None for n in arena.names()
               if n not in slabbed and n != STAGE_SCRATCH)
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(private) for b in private[i + 1:])
    assert exe.arena_report()["arena_bytes"] == (
        arena.slab.nbytes + sum(b.nbytes for b in private))
    assert arena.slab.nbytes < sum(arena.get(n).nbytes for n in slabbed)


def test_stages_hold_arrays_only_where_the_lifetime_scan_looks():
    """A stage keeps arrays only as attributes or items of a flat list.
    Anything that could hide one from the scan that sets lifetimes and
    moves buffers into the slab raises at compile time, rather than
    leave a buffer with a lifetime too short."""
    a = np.zeros(4)
    taps = [a[1:], a[2:]]
    stage = SimpleNamespace(out=a, taps=taps, shape=(1, 2), op=np.add,
                            inv=None)
    assert [id(x) for x in _arrays(stage)] == [id(a), *map(id, taps)]
    for hidden in ({"out": a}, (a,), [(a,)], [[1]],
                   SimpleNamespace(out=a)):
        with pytest.raises(TypeError, match="flat list"):
            _arrays(SimpleNamespace(out=a, extra=hidden))


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
