"""Differential test of the whole-network lowering.

``compile_plan`` lowers the whole module tree — conv sites, folded
BatchNorm, ReLU epilogues, residual adds, pools, DenseNet block
buffers, the head — into one stage list.  These tests compare
``compile -> run`` with ``Module.forward`` over seeded random networks
built from every ``models.blocks`` block, every factored format, both
execution dtypes, every batch size up to ``max_batch`` and rectangular
inputs, plus the zoo presets hostbench does not deploy.  A second
generator draws single conv layers, behind a 1x1 stem on half the
seeds, over the geometry the zoo never builds (kernels 1-7, strides
1-3, any padding below the kernel, channel counts 1 and primes, one
output column) and also checks dense layers against
``nn.functional.conv2d_reference``.  A third draws chains of three
stride-1 convs and padded pools, whose padded inputs meet at one
padded extent with different paddings and border fills.

Activations share one slab by lifetime, so every case also checks that
no two live buffers share memory and that a run over a NaN-filled slab,
at full and at partial batch, returns the same bits as a clean run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.dynamic import arena_overlaps, stale_reads
from repro.gpusim.device import A100
from repro.inference import compile_model
from repro.models.blocks import (
    BasicBlock,
    Bottleneck,
    ConvBNReLU,
    DenseBlock,
    Transition,
)
from repro.models.introspection import replace_module
from repro.models.registry import build_model
from repro.nn.conv import Conv2d
from repro.nn.cp_conv import CPConv2d
from repro.nn.functional import conv2d_reference
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
)
from repro.nn.module import Module, Sequential
from repro.nn.tt_conv import TTConv2d
from repro.nn.tucker_conv import TuckerConv2d

#: Largest ``|run - forward|`` allowed, relative to ``max |forward|``,
#: per execution dtype.  float64 differs from the forward only by
#: summation order (folded BatchNorm, per-sample GEMMs, tap order); a
#: float32 executable runs every stage in single precision against the
#: float64 forward.
TOLERANCE = {np.dtype(np.float64): 1e-9, np.dtype(np.float32): 1e-4}

FORMATS = ("dense", "tucker", "cp", "tt")
#: The block each generated network is built around (plus 1-2 random
#: extra blocks), cycled by seed so every one is covered.
FEATURES = ("basic", "basic_down", "bottleneck", "dense", "transition",
            "pool")
N_CASES = 24


def assert_close(exe, y, ref) -> None:
    assert y.shape == ref.shape
    tol = TOLERANCE[exe.dtype] * max(1.0, float(np.max(np.abs(ref))))
    np.testing.assert_allclose(y, ref, rtol=0, atol=tol)


def assert_matches_forward(exe, model, x) -> None:
    assert_close(exe, exe.run(x), model.forward(x))


def assert_arena_safe(exe, x) -> None:
    """No two live buffers share memory, and over a NaN-filled slab, at
    ``x``'s full batch and at a partial one, the output is bit for bit
    that of a run over a zeroed slab."""
    assert arena_overlaps(exe) == []
    assert stale_reads(exe, x) == []


def randomize_batchnorm(model: Module, rng) -> None:
    """Non-trivial eval statistics, so folding actually moves weights."""
    for mod in model.modules():
        if isinstance(mod, BatchNorm2d):
            n = mod.num_features
            mod.gamma.data[...] = rng.uniform(0.5, 1.5, n)
            mod.beta.data[...] = rng.normal(0.0, 0.3, n)
            mod.running_mean[...] = rng.normal(0.0, 0.3, n)
            mod.running_var[...] = rng.uniform(0.5, 2.0, n)


def factor(model: Module, fmt: str, rng) -> None:
    """Replace every spatial dense conv by a random ``fmt`` layer of
    random ranks (a random bias too, so the fold meets one)."""
    if fmt == "dense":
        return
    for name, mod in list(model.named_modules()):
        if type(mod) is not Conv2d or mod.kernel_size == 1:
            continue
        c, n, k = mod.in_channels, mod.out_channels, mod.kernel_size
        kw = dict(stride=mod.stride, padding=mod.padding,
                  bias=bool(rng.integers(2)),
                  seed=int(rng.integers(1 << 30)))
        if fmt == "tucker":
            new: Module = TuckerConv2d(
                c, n, k, rank_in=int(rng.integers(1, c + 1)),
                rank_out=int(rng.integers(1, n + 1)), **kw)
        elif fmt == "cp":
            new = CPConv2d(c, n, k, rank=int(rng.integers(1, c + n)), **kw)
        else:
            new = TTConv2d(c, n, k, rank1=int(rng.integers(1, n + 1)),
                           rank2=int(rng.integers(1, k * k + 1)), **kw)
        replace_module(model, name, new)


def random_network(seed: int):
    """``(model, (H, W))``: a stem, the seed's featured block plus 1-2
    random ones, and a pooled or flattened ``Linear`` head."""
    rng = np.random.default_rng(seed)
    h, w = int(rng.integers(7, 14)), int(rng.integers(7, 14))
    c = int(rng.integers(3, 7))
    layers = [ConvBNReLU(3, c, 3, 1, 1, seed=seed)]
    ho, wo = h, w
    extras = rng.choice(FEATURES, size=int(rng.integers(1, 3)))
    for kind in [FEATURES[seed % len(FEATURES)], *extras]:
        down = min(ho, wo) >= 4
        sub = int(rng.integers(1 << 30))
        if kind in ("basic", "basic_down"):
            stride = 2 if kind == "basic_down" and down else 1
            out = c + 2 if kind == "basic_down" else c
            layers.append(BasicBlock(c, out, stride=stride, seed=sub))
            c = out
        elif kind == "bottleneck":
            width = int(rng.integers(2, 4))
            stride = int(rng.integers(1, 3)) if down else 1
            layers.append(Bottleneck(c, width, stride=stride, seed=sub))
            c = width * Bottleneck.expansion
        elif kind in ("dense", "transition"):
            block = DenseBlock(c, int(rng.integers(1, 4)),
                               int(rng.integers(2, 5)), seed=sub)
            layers.append(block)
            c = block.out_channels
            if kind == "transition" and down:
                layers.append(Transition(c, max(2, c // 2), seed=sub + 1))
                c = layers[-1].out_channels
        else:
            pools = [AvgPool2d(3, stride=1, padding=1)]
            if down:
                pools += [MaxPool2d(2), AvgPool2d(2),
                          MaxPool2d(3, stride=2, padding=1)]
            layers.append(pools[int(rng.integers(len(pools)))])
        body = Sequential(*layers).eval()
        ho, wo = body.forward(np.zeros((1, 3, h, w))).shape[2:]
    classes = int(rng.integers(2, 6))
    if rng.integers(2):
        head = [GlobalAvgPool2d(), Linear(c, classes, seed=seed)]
    else:
        head = [Flatten(), Dropout(0.3), Linear(c * ho * wo, classes,
                                                seed=seed)]
    return Sequential(*layers, *head), (h, w)


@pytest.mark.parametrize("seed", range(N_CASES))
def test_lowering_matches_forward(seed):
    fmt = FORMATS[seed % len(FORMATS)]
    dtype = np.dtype(np.float64 if seed < N_CASES // 2 else np.float32)
    model, hw = random_network(seed)
    rng = np.random.default_rng(1000 + seed)
    factor(model, fmt, rng)
    randomize_batchnorm(model, rng)
    model.eval()
    max_batch = int(rng.integers(1, 5))
    exe = compile_model(model, A100, image_hw=hw, max_batch=max_batch,
                        dtype=dtype, threads=1)
    x = rng.standard_normal((max_batch, 3) + hw)
    for b in range(1, max_batch + 1):
        assert_matches_forward(exe, model, x[:b])
    assert_arena_safe(exe, x)


def test_generated_networks_cover_every_block():
    seen = set()
    for seed in range(N_CASES):
        model, _ = random_network(seed)
        for mod in model.modules():
            if isinstance(mod, BasicBlock):
                seen.add("basic_down" if isinstance(mod.shortcut, Sequential)
                         else "basic")
            seen.add(type(mod).__name__)
    assert {"basic", "basic_down", "Bottleneck", "DenseBlock", "Transition",
            "MaxPool2d", "AvgPool2d", "GlobalAvgPool2d", "Flatten",
            "Dropout", "Linear"} <= seen


#: Channel counts of the single-conv generator: 1 and primes.
CONV_CHANNELS = (1, 2, 3, 5, 7, 11)
N_CONVS = 256


def random_conv(seed: int):
    """``(model, (H, W), dtype)``: one conv layer of seeded geometry —
    kernel 1-7, stride 1-3, padding 0..k-1, in/out channels from
    ``CONV_CHANNELS``, a rectangular input no smaller than the kernel —
    dense, or (k >= 2) factored into the seed's format.  On half the
    seeds a 1x1 conv stem comes first, so an unpadded conv reads an
    arena buffer (pitched windows) rather than the network input (the
    2-D window view)."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 8))
    c, n = (int(v) for v in rng.choice(CONV_CHANNELS, 2))
    h, w = (int(v) for v in rng.integers(k, k + 9, 2))
    conv = Conv2d(c, n, k, stride=int(rng.integers(1, 4)),
                  padding=int(rng.integers(k)), bias=bool(rng.integers(2)),
                  seed=seed)
    stem = [Conv2d(c, c, 1, seed=seed + 1)] if seed // 8 % 2 else []
    model = Sequential(*stem, conv)
    factor(model, FORMATS[seed % len(FORMATS)], rng)
    dtype = np.dtype(np.float64 if seed // len(FORMATS) % 2 else np.float32)
    return model.eval(), (h, w), dtype


@pytest.mark.parametrize("seed", range(N_CONVS))
def test_conv_geometry_matches_forward(seed):
    model, hw, dtype = random_conv(seed)
    conv = model[-1]
    rng = np.random.default_rng(2000 + seed)
    max_batch = int(rng.integers(1, 5))
    c = model[0].in_channels
    exe = compile_model(model, A100, image_hw=hw, in_channels=c,
                        max_batch=max_batch, dtype=dtype, threads=1)
    x = rng.standard_normal((max_batch, c) + hw)
    for b in range(1, max_batch + 1):
        assert_matches_forward(exe, model, x[:b])
    assert_arena_safe(exe, x)
    if type(conv) is Conv2d:
        z = model[0].forward(x) if len(model) > 1 else x
        ref = conv2d_reference(z, conv.weight.data, conv.stride, conv.padding)
        if conv.bias is not None:
            ref = ref + conv.bias.data[:, None, None]
        assert_close(exe, exe.run(x), ref)


def test_generated_convs_cover_the_geometry():
    seen = {"k": set(), "stride": set(), "pad": set(), "ch": set(),
            "fmt": set(), "case": set()}
    for seed in range(N_CONVS):
        model, (h, w), dtype = random_conv(seed)
        conv = model[-1]
        k, p = conv.kernel_size, conv.padding
        assert min(h, w) >= k and 0 <= p < k
        seen["k"].add(k)
        seen["stride"].add(conv.stride)
        seen["pad"].add("k-1" if p == k - 1 else p)
        seen["ch"].update((conv.in_channels, conv.out_channels))
        seen["fmt"].add((type(conv).__name__, dtype.name))
        # A stride-1 k >= 2 conv over an arena buffer takes pitched
        # windows: anything but a dense, unpadded conv on the input.
        stem = len(model) > 1
        pitched = conv.stride == 1 and k >= 2 and (
            stem or p > 0 or type(conv) is not Conv2d)
        if pitched and stem and p == 0 and type(conv) is Conv2d:
            seen["case"].add("unpadded dense over an arena buffer")
        if pitched and w + 2 * p == k:
            seen["case"].add("one output column")
        if h != w:
            seen["case"].add("H != W")
    assert seen["k"] == set(range(1, 8))
    assert seen["stride"] == {1, 2, 3}
    assert {0, 1, "k-1"} <= seen["pad"]
    assert seen["ch"] == set(CONV_CHANNELS)
    assert seen["fmt"] == {(cls, dt) for cls in ("Conv2d", "TuckerConv2d",
                                                 "CPConv2d", "TTConv2d")
                           for dt in ("float32", "float64")}
    assert seen["case"] == {"unpadded dense over an arena buffer",
                            "one output column", "H != W"}


N_CHAINS = 32


def random_conv_chain(seed: int):
    """``(model, (H, W))``: three stride-1 convs over one channel count,
    each of seeded kernel 1-5 and padding below the kernel (``k // 2``
    where the input is narrower than the kernel), with a padded 3x3
    stride-1 max or average pool after some of them, factored into the
    seed's format.  Padded inputs of one padded extent then meet with
    different paddings (a 3x3 at pad 1 and a 5x5 at pad 2 over one
    extent) and different border fills."""
    rng = np.random.default_rng(seed)
    c = int(rng.choice(CONV_CHANNELS[1:]))
    h, w = (int(v) for v in rng.integers(4, 10, 2))
    layers: list = []
    ho, wo = h, w
    for i in range(3):
        k = int(rng.integers(1, 6))
        p = int(rng.integers(k)) if min(ho, wo) >= k else k // 2
        layers.append(Conv2d(c, c, k, padding=p, bias=bool(rng.integers(2)),
                             seed=seed * 8 + i))
        ho, wo = ho + 2 * p - k + 1, wo + 2 * p - k + 1
        if rng.integers(4) == 0:
            pool = MaxPool2d if rng.integers(2) else AvgPool2d
            layers.append(pool(3, stride=1, padding=1))
    model = Sequential(*layers)
    factor(model, FORMATS[seed % len(FORMATS)], rng)
    return model.eval(), (h, w)


def padded_extents(model: Module, hw) -> list:
    """``(Hp, Wp, padding, kind)`` of each padded input of a chain."""
    extents = []
    h, w = hw
    for mod in model:
        k, p = mod.kernel_size, mod.padding
        if p:
            extents.append((h + 2 * p, w + 2 * p, p, type(mod).__name__))
        h, w = h + 2 * p - k + 1, w + 2 * p - k + 1
    return extents


@pytest.mark.parametrize("seed", range(N_CHAINS))
def test_conv_chain_matches_forward(seed):
    model, hw = random_conv_chain(seed)
    rng = np.random.default_rng(3000 + seed)
    c = model[0].in_channels
    max_batch = int(rng.integers(1, 4))
    dtype = np.dtype(np.float64 if seed // len(FORMATS) % 2 else np.float32)
    exe = compile_model(model, A100, image_hw=hw, in_channels=c,
                        max_batch=max_batch, dtype=dtype, threads=1)
    x = rng.standard_normal((max_batch, c) + hw)
    for b in range(1, max_batch + 1):
        assert_matches_forward(exe, model, x[:b])
    assert_arena_safe(exe, x)


def test_generated_chains_pad_one_extent_two_ways():
    """Some chain pads two inputs to one extent with different paddings,
    and some with the same padding but different fills."""
    seen = set()
    for seed in range(N_CHAINS):
        model, hw = random_conv_chain(seed)
        extents = padded_extents(model, hw)
        for i, (hp, wp, p, kind) in enumerate(extents):
            for hq, wq, q, other in extents[i + 1:]:
                if (hp, wp) == (hq, wq) and p != q:
                    seen.add("padding")
                if (hp, wp, p) == (hq, wq, q) and (kind == "MaxPool2d") != (
                        other == "MaxPool2d"):
                    seen.add("fill")
    assert seen == {"padding", "fill"}


@pytest.mark.parametrize("name,fmt", [
    ("resnet50_slim", "dense"),
    ("resnet50_slim", "cp"),
    ("densenet_tiny", "tucker"),
    ("densenet_tiny", "tt"),
])
def test_presets_match_forward(name, fmt):
    """The zoo presets hostbench does not deploy."""
    rng = np.random.default_rng(7)
    model = build_model(name, seed=0)
    factor(model, fmt, rng)
    randomize_batchnorm(model, rng)
    model.eval()
    hw = (12, 10)
    exe = compile_model(model, A100, image_hw=hw, max_batch=2, threads=1)
    x = rng.standard_normal((2, 3) + hw)
    for b in (1, 2):
        assert_matches_forward(exe, model, x[:b])
    assert_arena_safe(exe, x)


def test_long_lived_buffers_keep_their_bytes():
    """A residual block's input lives until its add and a DenseNet
    block buffer across all of its layers; the slab lends their bytes
    only to buffers live at other steps."""
    model = Sequential(ConvBNReLU(3, 4, 3, 1, 1, seed=0),
                       BasicBlock(4, 4, seed=1), DenseBlock(4, 2, 2, seed=2),
                       GlobalAvgPool2d(), Linear(8, 3, seed=3)).eval()
    exe = compile_model(model, A100, image_hw=(6, 6), max_batch=2,
                        threads=1)
    arena, steps = exe.arena, exe._steps
    add = [type(s).__name__ for s in steps].index("AddStage")
    layers = [i for i, s in enumerate(steps)
              if getattr(s, "site_name", "").startswith("layer2.")]
    assert arena.interval("layer0.layer0.out") == (0, add)
    first, last = arena.interval("layer2.out")
    assert first < layers[0] and last > layers[-1]
    for name in ("layer0.layer0.out", "layer2.out"):
        assert any(np.shares_memory(arena.get(name), arena.get(other))
                   for other in arena.names() if other != name)
    x = np.random.default_rng(0).standard_normal((2, 3, 6, 6))
    assert_matches_forward(exe, model, x)
    assert_arena_safe(exe, x)


def test_padded_max_pool_ignores_the_border():
    """Padded cells never win a max, even over all-negative windows."""
    model = Sequential(Conv2d(3, 4, 3, padding=1, seed=1),
                       MaxPool2d(3, stride=2, padding=1), Flatten(),
                       Linear(4 * 4 * 5, 3, seed=2)).eval()
    model[0].bias.data[...] = -10.0
    exe = compile_model(model, A100, image_hw=(7, 9), max_batch=2)
    x = np.random.default_rng(4).standard_normal((2, 3, 7, 9))
    assert_matches_forward(exe, model, x)


def test_padded_inputs_stay_private():
    """A padded input keeps the border written at compile time, so it
    shares no byte with any other buffer, even with a padded input of
    the same shape whose lifetime is disjoint: here layer0 (3x3, pad 1)
    and layer2 (5x5, pad 2) both pad to 10x10, and layer0's staging
    writes rows and columns 1-8, inside layer2's zero border."""
    model = Sequential(Conv2d(4, 4, 3, padding=1, seed=1),
                       Conv2d(4, 4, 3, padding=0, seed=2),
                       Conv2d(4, 4, 5, padding=2, seed=3)).eval()
    exe = compile_model(model, A100, image_hw=(8, 8), in_channels=4,
                        max_batch=2)
    arena = exe.arena
    assert arena.get("layer0.xpad").shape == arena.get("layer2.xpad").shape
    for pad in ("layer0.xpad", "layer2.xpad"):
        assert not any(np.shares_memory(arena.get(pad), arena.get(other))
                       for other in arena.names() if other != pad)
    x = np.random.default_rng(5).standard_normal((2, 4, 8, 8))
    for _ in range(2):
        assert_matches_forward(exe, model, x)
    assert_arena_safe(exe, x)


def test_compile_reads_the_model_only():
    """No deep copy: compiling must not touch the source model."""
    rng = np.random.default_rng(3)
    model = build_model("densenet_tiny", seed=0)
    factor(model, "tucker", rng)
    randomize_batchnorm(model, rng)
    model.eval()
    before = model.state_dict()
    compile_model(model, A100, image_hw=(8, 8), max_batch=2)
    after = model.state_dict()
    assert before.keys() == after.keys()
    for key, value in before.items():
        np.testing.assert_array_equal(after[key], value, err_msg=key)


class _Doubler(Module):
    def forward(self, x: np.ndarray) -> np.ndarray:
        return 2.0 * x


def test_unknown_module_raises_with_its_path():
    model = Sequential(Conv2d(3, 4, 3, padding=1, seed=0),
                       Sequential(_Doubler())).eval()
    with pytest.raises(TypeError, match=r"_Doubler at 'layer1\.layer0'"):
        compile_model(model, A100, image_hw=(6, 6))
