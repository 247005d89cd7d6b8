"""FactoredConv2d runs each format's chain op for op.

Every Tucker, CP and TT layer shares one forward/backward.  These tests
pin it bit for bit against a test-local pw1 -> core (-> group-sum) ->
pw2 written directly with ``repro.nn.functional``: forward output,
input gradient and every parameter gradient must be *equal*, not close,
so a reordered or re-associated op fails here even where gradcheck and
the ``to_conv_weight`` round trip (both tolerance-based) would pass.
"""

import numpy as np
import pytest

from repro.nn import CPConv2d, FactoredConv2d, TTConv2d, TuckerConv2d
from repro.nn.functional import (
    conv2d_backward,
    conv2d_forward,
    depthwise_conv2d_backward,
    depthwise_conv2d_forward,
    pointwise_conv_backward,
    pointwise_conv_forward,
)

C, N = 6, 8

LAYERS = {
    "tucker": lambda **kw: TuckerConv2d(C, N, rank_in=3, rank_out=5, **kw),
    "cp": lambda **kw: CPConv2d(C, N, rank=7, **kw),
    "tt-r2=1": lambda **kw: TTConv2d(C, N, rank1=4, rank2=1, **kw),
    "tt-r2=3": lambda **kw: TTConv2d(C, N, rank1=3, rank2=3, **kw),
}


def reference(layer, x, grad):
    """The chain written out stage by stage: ``(y, grad_x, grads)``."""
    w_in, core, w_out = layer.w_in.data, layer.core.data, layer.w_out.data
    s, p = layer.stride, layer.padding
    z1 = pointwise_conv_forward(x, w_in)
    if layer.format == "tucker":
        z2, cols = conv2d_forward(z1, core, stride=s, padding=p)
    else:
        z2 = depthwise_conv2d_forward(z1, core, stride=s, padding=p)
    z3 = z2
    if layer.format == "tt":
        b, _, oh, ow = z2.shape
        z3 = z2.reshape(b, layer.rank1, layer.rank2, oh, ow).sum(axis=2)
    y = pointwise_conv_forward(z3, w_out)
    if layer.bias is not None:
        y = y + layer.bias.data[None, :, None, None]

    grads = {}
    if layer.bias is not None:
        grads["bias"] = grad.sum(axis=(0, 2, 3))
    grad_z3, grads["w_out"] = pointwise_conv_backward(grad, z3, w_out)
    grad_z2 = grad_z3
    if layer.format == "tt":
        grad_z2 = np.repeat(grad_z3, layer.rank2, axis=1)
    if layer.format == "tucker":
        grad_z1, grads["core"] = conv2d_backward(
            grad_z2, cols, core, z1.shape, stride=s, padding=p)
    else:
        grad_z1, grads["core"] = depthwise_conv2d_backward(
            grad_z2, z1, core, stride=s, padding=p)
    grad_x, grads["w_in"] = pointwise_conv_backward(grad_z1, x, w_in)
    return y, grad_x, grads


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "nobias"])
@pytest.mark.parametrize("k,padding", [(2, 0), (1, 0), (3, 1)],
                         ids=["k2", "k1", "k3"])
@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("kind", sorted(LAYERS))
def test_chain_matches_stagewise_reference_exactly(kind, stride, k, padding,
                                                   bias):
    layer = LAYERS[kind](kernel_size=k, stride=stride, padding=padding,
                         bias=bias, seed=3)
    rng = np.random.default_rng(7)
    if bias:
        layer.bias.data[...] = rng.standard_normal(N)
    x = rng.standard_normal((2, C, 9, 9))

    y = layer.forward(x)
    grad = rng.standard_normal(y.shape)
    grad_x = layer.backward(grad)
    ref_y, ref_grad_x, ref_grads = reference(layer, x, grad)

    assert np.array_equal(y, ref_y)
    assert np.array_equal(grad_x, ref_grad_x)
    names = [name for name, _ in layer.named_parameters()]
    assert names == ["w_in", "core", "w_out"] + (["bias"] if bias else [])
    for name, param in layer.named_parameters():
        assert np.array_equal(param.grad, ref_grads[name]), name


@pytest.mark.parametrize("kind", sorted(LAYERS))
def test_factors_follow_the_format_chain(kind):
    layer = LAYERS[kind](kernel_size=3, seed=0)
    ch = layer.chain
    assert isinstance(layer, FactoredConv2d)
    assert layer.w_in.shape == (ch.mid, C)
    assert layer.core.shape == (
        (ch.mid, 3, 3) if ch.depthwise else (ch.core_out, ch.mid, 3, 3))
    assert layer.w_out.shape == (N, ch.out)
    assert list(layer.export_weights()) == ["w_in", "core", "w_out", "bias"]
    assert layer.n_weight_params() == layer.w_in.size + layer.core.size \
        + layer.w_out.size
