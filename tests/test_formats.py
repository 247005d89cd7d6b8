"""Decomposition formats as a planning axis: the format registry,
CP/TT conv modules, format-aware rank selection, and mixed-format
compiled execution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backends import backend_names
from repro.codesign.format_search import (
    best_format_under_budget,
    layer_format_candidates,
)
from repro.codesign.pipeline import decompose_for_device
from repro.codesign.rank_selection import (
    LayerShape,
    RankDecision,
    RankPlan,
    select_ranks,
)
from repro.gpusim.device import A100
from repro.inference import compile_plan, plan_model, plan_tucker_model
from repro.inference.executable import CompiledCPConv2d, CompiledTTConv2d
from repro.models.arch_specs import LayerSpec, ModelSpec
from repro.models.introspection import (
    find_module,
    replace_module,
    trace_layer_sites,
)
from repro.models.registry import build_model
from repro.nn.conv import Conv2d
from repro.nn.cp_conv import CPConv2d
from repro.nn.functional import conv2d_forward
from repro.nn.module import Sequential
from repro.nn.tt_conv import TTConv2d
from repro.nn.tucker_conv import TuckerConv2d
from repro.tensor.formats import (
    FACTORED_FORMATS,
    format_names,
    get_format,
    resolve_formats,
)

IMAGE_HW = (8, 8)


# ---------------------------------------------------------------------------
# Format registry
# ---------------------------------------------------------------------------

def test_registry_knows_all_factored_formats():
    assert set(FACTORED_FORMATS) == {"tucker", "cp", "tt"}
    assert set(FACTORED_FORMATS) <= set(format_names())
    for name in FACTORED_FORMATS:
        assert get_format(name).name == name


def test_resolve_formats_aliases_and_errors():
    assert resolve_formats(None) == ("tucker",)
    assert set(resolve_formats("all")) == set(format_names())
    assert set(resolve_formats("auto")) == set(format_names())
    assert resolve_formats("cp") == ("cp",)
    assert resolve_formats(("tt", "tt", "cp")) == ("tt", "cp")
    with pytest.raises(ValueError, match="bogus"):
        resolve_formats("bogus")


# ---------------------------------------------------------------------------
# Round-trip error bounds (from_conv -> to_conv_weight) and cost accounting
# ---------------------------------------------------------------------------

def _from_conv(fmt_name, conv, ranks):
    """The format's module factorized from ``conv`` at ``ranks`` (in
    the format's rank order), with the default iteration counts."""
    if fmt_name == "tucker":
        d1, d2 = ranks
        return TuckerConv2d.from_conv(conv, rank_out=d2, rank_in=d1)
    if fmt_name == "cp":
        (q,) = ranks
        return CPConv2d.from_conv(conv, rank=q)
    r1, r2 = ranks
    return TTConv2d.from_conv(conv, rank1=r1, rank2=r2)


def _roundtrip_error(fmt_name, weight, ranks):
    n, c, k, _ = weight.shape
    conv = Conv2d(c, n, k, seed=0)
    conv.weight.data[...] = weight
    recon = _from_conv(fmt_name, conv, ranks).to_conv_weight()
    return np.linalg.norm(recon - weight) / np.linalg.norm(weight)


@pytest.mark.parametrize("fmt_name", FACTORED_FORMATS)
def test_full_rank_roundtrip_is_tight(fmt_name):
    """At (near-)full rank each format reconstructs a random kernel
    within a small relative error; Tucker/TT are exact."""
    rng = np.random.default_rng(7)
    c, n, k = 6, 8, 3
    weight = rng.standard_normal((n, c, k, k))
    if fmt_name == "tucker":
        ranks = (c, n)
    elif fmt_name == "tt":
        ranks = (n, min(n * c, k * k))
    else:  # CP needs rank >= matrix rank of the unfolding for exactness
        ranks = (c * k * k,)
    rel = _roundtrip_error(fmt_name, weight, ranks)
    if fmt_name in ("tucker", "tt"):
        assert rel < 1e-10
    else:
        assert rel < 0.05  # ALS at full rank converges tightly, not exactly


@pytest.mark.parametrize("fmt_name", FACTORED_FORMATS)
def test_truncated_roundtrip_is_bounded_and_monotone(fmt_name):
    """Truncated ranks keep a bounded error that shrinks as rank grows."""
    rng = np.random.default_rng(3)
    c, n, k = 8, 12, 3
    weight = rng.standard_normal((n, c, k, k))
    if fmt_name == "tucker":
        rank_pairs = [(2, 3), (6, 9)]
    elif fmt_name == "tt":
        rank_pairs = [(3, 2), (9, 6)]
    else:
        rank_pairs = [(4,), (16,)]
    errors = [_roundtrip_error(fmt_name, weight, r) for r in rank_pairs]
    assert all(rel < 1.0 for rel in errors)
    assert errors[1] < errors[0]


@pytest.mark.parametrize("fmt_name", FACTORED_FORMATS)
def test_params_accounting_matches_modules(fmt_name):
    """``DecompFormat.n_params`` agrees with the actual module's
    factor-parameter count."""
    conv = Conv2d(8, 12, 3, padding=1, seed=0)
    ranks = {"tucker": (4, 6), "cp": (5,), "tt": (6, 4)}[fmt_name]
    mod = _from_conv(fmt_name, conv, ranks)
    # TT-SVD may truncate below the request; the module has the truth.
    assert get_format(fmt_name).n_params(8, 12, 3, 3, mod.ranks) == (
        mod.n_weight_params()
    )


# C=8 -> N=12, 3x3 core, 10x10 input, padding 0: the output is 8x8 at
# stride 1 and 4x4 at stride 2.  Stage by stage (2 FLOPs per MAC, the
# TT group-sum 1 add per element it reads):
#   tucker (4, 6): 2*100*8*4 + 2*HW'*9*4*6 + 2*HW'*6*12
#   cp (5,):       2*100*8*5 + 2*HW'*5*9   + 2*HW'*5*12
#   tt (6, 1):     2*100*8*6 + 2*HW'*6*9   + 0         + 2*HW'*6*12
#   tt (6, 3):     2*100*8*18 + 2*HW'*18*9 + HW'*18    + 2*HW'*6*12
# Params: C*mid + 9*(core filters) + N*(last 1x1 input width).
@pytest.mark.parametrize("fmt_name,ranks,flops_s1,flops_s2,params", [
    ("tucker", (4, 6), 43264, 15616, 320),
    ("cp", (5,), 21440, 11360, 145),
    ("tt", (6, 1), 25728, 13632, 174),
    ("tt", (6, 3), 59904, 36576, 378),
])
def test_flops_and_params_pinned(fmt_name, ranks, flops_s1, flops_s2, params):
    fmt = get_format(fmt_name)
    assert fmt.n_params(8, 12, 3, 3, ranks) == params
    for stride, expected in ((1, flops_s1), (2, flops_s2)):
        conv = Conv2d(8, 12, 3, stride=stride, padding=0, seed=0)
        mod = _from_conv(fmt_name, conv, ranks)
        assert mod.ranks == ranks
        assert mod.flops(10, 10) == expected
        assert mod.n_weight_params() == params
        oh, ow = mod.output_shape(10, 10)
        assert fmt.flops(8, 12, 10, 10, ranks, 3, 3, oh, ow) == expected


# ---------------------------------------------------------------------------
# export_weights <-> forward equivalence (the chain equals the
# reconstructed dense conv at machine precision)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0)])
@pytest.mark.parametrize("kind", ["cp", "tt"])
def test_factored_forward_matches_reconstructed_dense(kind, stride, padding):
    rng = np.random.default_rng(11)
    conv = Conv2d(6, 10, 3, stride=stride, padding=padding, seed=2)
    if kind == "cp":
        mod = CPConv2d.from_conv(conv, rank=9)
    else:
        mod = TTConv2d.from_conv(conv, rank1=8, rank2=5)
    x = rng.standard_normal((2, 6, 9, 9))
    y = mod.forward(x)
    dense, _ = conv2d_forward(
        x, mod.to_conv_weight(), stride=stride, padding=padding,
    )
    if mod.bias is not None:
        dense = dense + mod.bias.data[None, :, None, None]
    np.testing.assert_allclose(y, dense, atol=1e-12)


@pytest.mark.parametrize("kind", ["cp", "tt"])
def test_export_weights_reproduce_forward(kind):
    """Running the exported (contiguous, dtype-cast) weights through
    the raw stage math reproduces ``forward`` exactly."""
    rng = np.random.default_rng(4)
    conv = Conv2d(5, 7, 3, padding=1, seed=3)
    mod = (
        CPConv2d.from_conv(conv, rank=6) if kind == "cp"
        else TTConv2d.from_conv(conv, rank1=6, rank2=4)
    )
    x = rng.standard_normal((1, 5, 6, 6))
    w = mod.export_weights()
    for arr in w.values():
        if arr is not None:
            assert arr.flags["C_CONTIGUOUS"]
    z1 = np.einsum("qc,bchw->bqhw", w["w_in"], x)
    from repro.nn.functional import depthwise_conv2d_forward

    z2 = depthwise_conv2d_forward(z1, w["dw"], stride=1, padding=1)
    if kind == "tt":
        b, _, oh, ow = z2.shape
        z2 = z2.reshape(b, mod.rank1, mod.rank2, oh, ow).sum(axis=2)
    y = np.einsum("nq,bqhw->bnhw", w["w_out"], z2)
    if w["bias"] is not None:
        y = y + w["bias"][None, :, None, None]
    np.testing.assert_allclose(y, mod.forward(x), atol=1e-12)


# ---------------------------------------------------------------------------
# Format-aware rank selection
# ---------------------------------------------------------------------------

def test_layer_format_candidates_cover_requested_formats():
    layer = LayerShape(name="l", c=64, n=128, h=16, w=16, r=3, s=3)
    _, candidates = layer_format_candidates(
        layer, A100, formats=("tucker", "cp", "tt"), rank_step=16,
    )
    present = {c.format for c in candidates}
    assert present == {"tucker", "cp", "tt"}
    for c in candidates:
        assert c.total_latency > 0 and c.flops > 0 and c.params > 0


def test_best_format_under_budget_picks_min_latency_plateau():
    layer = LayerShape(name="l", c=64, n=128, h=16, w=16, r=3, s=3)
    _, candidates = layer_format_candidates(
        layer, A100, formats=("tucker", "cp", "tt"), rank_step=16,
    )
    max_flops = max(c.flops for c in candidates)
    best = best_format_under_budget(candidates, max_flops)
    assert best is not None
    fastest = min(c.total_latency for c in candidates)
    assert best.total_latency <= fastest * 1.12 + 1e-18


def test_select_ranks_multiformat_decisions_are_well_formed():
    layers = [
        LayerShape(name="a", c=32, n=64, h=8, w=8, r=3, s=3),
        LayerShape(name="b", c=64, n=64, h=8, w=8, r=3, s=3),
    ]
    plan = select_ranks(
        layers, A100, budget=0.5, rank_step=8, formats="all",
    )
    for d in plan.decisions:
        if d.decomposed:
            assert d.format in FACTORED_FORMATS
            assert d.ranks is not None
            if d.format == "tucker":
                assert d.d1 is not None and d.d2 is not None
            else:
                assert d.d1 is None and d.d2 is None


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("fmt_name,ranks", [
    ("tucker", (8, 12)), ("cp", (12,)), ("tt", (8, 3)),
])
def test_both_planners_expand_a_site_identically(fmt_name, ranks, stride):
    """``plan_model`` on a one-conv model and ``plan_tucker_model`` on
    the matching one-layer spec emit the same chain kernels."""
    conv = Conv2d(16, 24, 3, stride=stride, padding=1, seed=0)
    model = Sequential(_from_conv(fmt_name, conv, ranks))
    from_model = plan_model(model, A100, (16, 16), in_channels=16)
    layer = LayerSpec(
        name="layer0", kind="conv", in_channels=16, out_channels=24,
        height=16, width=16, kernel=3, stride=stride, padding=1,
    )
    decision = RankDecision(
        layer=LayerShape(name="layer0", c=16, n=24, h=layer.out_height,
                         w=layer.out_width),
        tucker_latency=0.0, original_latency=0.0, dense_flops=1,
        compressed_flops=1, reason="selected", format=fmt_name, ranks=ranks,
    )
    from_spec = plan_tucker_model(
        ModelSpec("one", [layer]), RankPlan([decision], 0.5, 0.15, A100.name),
        A100, core_backend="auto", include_bn_relu=False,
    )

    def chain(plan):
        return [(k.layer, k.kind, k.latency, k.backend, k.tiling)
                for k in plan.kernels]

    assert [k.layer for k in from_model.kernels] == [
        "layer0.pw1", "layer0.core", "layer0.pw2"
    ]
    assert chain(from_model) == chain(from_spec)


def test_decompose_error_names_formats_and_sites():
    model = build_model("resnet_tiny", seed=0)
    with pytest.raises(ValueError) as exc:
        decompose_for_device(
            model, A100, IMAGE_HW, budget=0.5, rank_step=2,
            theta=0.999, formats="all",
        )
    msg = str(exc.value)
    assert "formats" in msg
    assert "theta_skip" in msg or "no_candidate" in msg


# ---------------------------------------------------------------------------
# Mixed-format plan -> compile -> run (machine precision, all backends)
# ---------------------------------------------------------------------------

def _mixed_format_model():
    """The tiny preset with one site per factored format."""
    model = build_model("resnet_tiny", seed=0)
    convs = [
        name for name, mod in model.named_modules()
        if isinstance(mod, Conv2d) and mod.kernel_size > 1
        and min(mod.in_channels, mod.out_channels) >= 4
    ]
    assert len(convs) >= 3, convs
    tucker_site, cp_site, tt_site = convs[0], convs[1], convs[2]
    mod = find_module(model, tucker_site)
    replace_module(model, tucker_site, TuckerConv2d.from_conv(
        mod, rank_out=max(2, mod.out_channels // 2),
        rank_in=max(2, mod.in_channels // 2),
    ))
    mod = find_module(model, cp_site)
    replace_module(model, cp_site, CPConv2d.from_conv(
        mod, rank=max(2, mod.out_channels // 2),
    ))
    mod = find_module(model, tt_site)
    replace_module(model, tt_site, TTConv2d.from_conv(
        mod, rank1=max(2, mod.out_channels // 2), rank2=3,
    ))
    return model.eval(), (tucker_site, cp_site, tt_site)


@pytest.fixture(scope="module")
def mixed_model():
    return _mixed_format_model()


@pytest.mark.parametrize("backend", list(backend_names()) + ["auto"])
def test_mixed_format_executable_matches_forward(mixed_model, backend):
    model, _ = mixed_model
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 3) + IMAGE_HW)
    ref = model.forward(x)
    sites = trace_layer_sites(model, IMAGE_HW, in_channels=3)
    plan = plan_model(
        model, A100, IMAGE_HW, core_backend=backend, sites=sites,
    )
    exe = compile_plan(
        plan, model, A100, image_hw=IMAGE_HW, max_batch=2, sites=sites,
    )
    y = exe.run(x)
    np.testing.assert_allclose(y, ref, atol=1e-10, rtol=1e-10)
    np.testing.assert_array_equal(exe.run(x), y)


def test_mixed_format_plan_kinds_and_compiled_sites(mixed_model):
    model, (tucker_site, cp_site, tt_site) = mixed_model
    sites = trace_layer_sites(model, IMAGE_HW, in_channels=3)
    plan = plan_model(model, A100, IMAGE_HW, sites=sites)
    kinds = {k.layer: k.kind for k in plan.kernels}
    assert kinds[f"{tucker_site}.core"] == "core"
    assert kinds[f"{cp_site}.core"] == "dwcore"
    assert kinds[f"{tt_site}.core"] == "dwcore"
    # A fixed per-stage backend binds the per-stage compiled forms
    # (under "auto" the fused backend may win and replace them with
    # CompiledFusedSite — covered in test_fused.py).
    plan = plan_model(
        model, A100, IMAGE_HW, core_backend="tdc-model", sites=sites,
    )
    exe = compile_plan(
        plan, model, A100, image_hw=IMAGE_HW, max_batch=1, sites=sites,
    )
    by_name = {s.site_name: s for s in exe.sites()}
    assert isinstance(by_name[cp_site], CompiledCPConv2d)
    assert isinstance(by_name[tt_site], CompiledTTConv2d)


def test_plan_model_rejects_disallowed_format(mixed_model):
    model, (_, cp_site, _) = mixed_model
    with pytest.raises(ValueError, match=cp_site.replace(".", r"\.")):
        plan_model(model, A100, IMAGE_HW, formats=("tucker", "tt"))


def test_decompose_for_device_all_formats_compiles_and_matches():
    """The full pipeline: auto format selection -> mixed model ->
    plan -> compile -> machine-precision execution."""
    model = build_model("resnet_tiny", seed=0)
    model, plan, format_map = decompose_for_device(
        model, A100, IMAGE_HW, budget=0.5, rank_step=2, formats="all",
    )
    assert format_map
    for name, (fmt, ranks) in format_map.items():
        assert fmt in FACTORED_FORMATS
        assert all(r >= 1 for r in ranks)
    model.eval()
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 3) + IMAGE_HW)
    ref = model.forward(x)
    sites = trace_layer_sites(model, IMAGE_HW, in_channels=3)
    exec_plan = plan_model(model, A100, IMAGE_HW, sites=sites)
    exe = compile_plan(
        exec_plan, model, A100, image_hw=IMAGE_HW, max_batch=2, sites=sites,
    )
    np.testing.assert_allclose(exe.run(x), ref, atol=1e-10, rtol=1e-10)
