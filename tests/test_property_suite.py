"""Additional property-based tests on core invariants.

Wide-net hypothesis tests over the mathematical invariants the whole
system rests on: decomposition/reconstruction consistency, latency
model monotonicities, FLOPs conservation, and plan feasibility.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.codesign.flops import conv_flops
from repro.gpusim.device import A100
from repro.kernels.base import ConvShape, reference_conv
from repro.kernels.tdc_direct import TDCDirectKernel, Tiling, is_feasible
from repro.nn.tucker_conv import TuckerConv2d
from repro.tensor.formats import get_format
from repro.tensor.tucker import tucker2_project
from repro.tensor.unfold import relative_error


@st.composite
def kernels4d(draw):
    n = draw(st.integers(2, 8))
    c = draw(st.integers(2, 8))
    k = draw(st.sampled_from([1, 3]))
    seed = draw(st.integers(0, 2**31 - 1))
    return np.random.default_rng(seed).standard_normal((n, c, k, k))


class TestProjectionInvariants:
    @given(kernels4d(), st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_projection_error_bounded_by_norm(self, k, d2, d1):
        p = tucker2_project(k, d2, d1)
        # ||K - proj(K)|| <= ||K|| for an orthogonal-subspace projection.
        assert np.linalg.norm(k - p) <= np.linalg.norm(k) + 1e-9

    @given(kernels4d())
    @settings(max_examples=20, deadline=None)
    def test_full_rank_projection_identity(self, k):
        n, c = k.shape[0], k.shape[1]
        np.testing.assert_allclose(tucker2_project(k, n, c), k, atol=1e-8)

    @given(kernels4d(), st.integers(1, 6), st.integers(1, 6))
    @settings(max_examples=20, deadline=None)
    def test_projection_linear_under_scaling(self, k, d2, d1):
        """proj(a*K) == a*proj(K) — truncated HOSVD is scale-covariant."""
        p1 = tucker2_project(2.5 * k, d2, d1)
        p2 = 2.5 * tucker2_project(k, d2, d1)
        np.testing.assert_allclose(p1, p2, atol=1e-7)


class TestTuckerLayerInvariants:
    @given(st.integers(2, 6), st.integers(2, 6), st.integers(1, 4),
           st.integers(1, 4), st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_layer_matches_reconstructed_dense(self, c, n, d1, d2, seed):
        assume(d1 <= c and d2 <= n)
        rng = np.random.default_rng(seed)
        layer = TuckerConv2d(c, n, 3, rank_in=d1, rank_out=d2, padding=1,
                             bias=False, seed=seed)
        x = rng.standard_normal((1, c, 6, 6))
        w = layer.to_conv_weight()
        expected = reference_conv(x[0], w)
        np.testing.assert_allclose(layer.forward(x)[0], expected, atol=1e-8)

    @given(st.integers(4, 32), st.integers(4, 32))
    @settings(max_examples=20, deadline=None)
    def test_params_monotone_in_ranks(self, c, n):
        tucker = get_format("tucker")
        small = tucker.n_params(c, n, 3, 3, (1, 1))
        large = tucker.n_params(c, n, 3, 3, (min(4, c), min(4, n)))
        assert large >= small


class TestFlopsInvariants:
    @given(st.integers(8, 64), st.integers(8, 64), st.integers(4, 28))
    @settings(max_examples=25, deadline=None)
    def test_tucker_flops_below_dense_at_quarter_rank(self, c, n, hw):
        d1, d2 = max(1, c // 4), max(1, n // 4)
        tucker_flops = get_format("tucker").flops(c, n, hw, hw, (d1, d2))
        assert tucker_flops < conv_flops(c, n, hw, hw)

    @given(st.integers(2, 64), st.integers(2, 64), st.integers(4, 28))
    @settings(max_examples=25, deadline=None)
    def test_flops_positive(self, c, n, hw):
        assert get_format("tucker").flops(c, n, hw, hw, (1, 1)) > 0


class TestLatencyModelInvariants:
    @given(st.sampled_from([1, 2, 4, 7]), st.sampled_from([1, 2, 4, 7]),
           st.sampled_from([1, 2, 4, 8, 16]))
    @settings(max_examples=30, deadline=None)
    def test_latency_positive_for_feasible_tilings(self, th, tw, tc):
        shape = ConvShape(32, 32, 14, 14)
        t = Tiling(th, tw, tc)
        assume(is_feasible(t, shape, A100))
        lat = TDCDirectKernel(t).latency(shape, A100)
        assert lat > 0 and np.isfinite(lat)

    @given(st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_latency_scales_with_spatial_extent(self, mult):
        t = Tiling(4, 4, 8)
        small = TDCDirectKernel(t).latency(ConvShape(32, 32, 14, 14), A100)
        big = TDCDirectKernel(t).latency(
            ConvShape(32, 32, 14 * (mult + 1), 14 * (mult + 1)), A100
        )
        assert big >= small
