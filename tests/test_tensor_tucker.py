"""Tests for Tucker decomposition (HOSVD/HOOI/Tucker-2 projection)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.tucker import (
    TuckerTensor,
    hooi,
    hosvd,
    partial_tucker,
    tucker2_conv_kernel,
    tucker2_params,
    tucker2_project,
    tucker2_relative_error,
)
from repro.tensor.unfold import mode_dot, multi_mode_dot, relative_error, unfold


def low_tucker_rank_kernel(rng, n=12, c=10, r=3, s=3, d2=4, d1=5):
    """Build a kernel with exact Tucker-2 ranks (d2, d1)."""
    core = rng.standard_normal((d2, d1, r, s))
    u2 = rng.standard_normal((n, d2))
    u1 = rng.standard_normal((c, d1))
    return mode_dot(mode_dot(core, u2, 0), u1, 1)


class TestPartialTucker:
    def test_exact_recovery_of_low_rank(self, rng):
        k = low_tucker_rank_kernel(rng)
        t = partial_tucker(k, modes=(0, 1), ranks=(4, 5))
        assert relative_error(t.to_full(), k) < 1e-10

    def test_full_rank_is_lossless(self, rng):
        k = rng.standard_normal((6, 5, 3, 3))
        t = partial_tucker(k, modes=(0, 1), ranks=(6, 5))
        assert relative_error(t.to_full(), k) < 1e-12

    def test_ranks_property(self, rng):
        k = rng.standard_normal((8, 6, 3, 3))
        t = partial_tucker(k, modes=(0, 1), ranks=(4, 3))
        assert t.ranks == (4, 3)
        assert t.core.shape == (4, 3, 3, 3)
        assert t.full_shape == (8, 6, 3, 3)

    def test_factors_orthonormal(self, rng):
        k = rng.standard_normal((8, 6, 3, 3))
        t = partial_tucker(k, modes=(0, 1), ranks=(4, 3))
        for f in t.factors:
            np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-10)

    def test_hooi_improves_or_matches_hosvd(self, rng):
        k = rng.standard_normal((10, 8, 3, 3))
        err0 = relative_error(
            partial_tucker(k, (0, 1), (4, 4), n_iter=0).to_full(), k
        )
        err5 = relative_error(
            partial_tucker(k, (0, 1), (4, 4), n_iter=5).to_full(), k
        )
        assert err5 <= err0 + 1e-12

    def test_rank_clipping(self, rng):
        k = rng.standard_normal((4, 3, 2, 2))
        t = partial_tucker(k, modes=(0, 1), ranks=(100, 100))
        assert t.ranks == (4, 3)

    def test_duplicate_modes_rejected(self, rng):
        with pytest.raises(ValueError):
            partial_tucker(rng.standard_normal((3, 3, 3)), (0, 0), (2, 2))

    def test_rank_mode_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            partial_tucker(rng.standard_normal((3, 3, 3)), (0, 1), (2,))

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=5))
    @settings(max_examples=15, deadline=None)
    def test_error_monotone_in_rank(self, d2, d1):
        rng = np.random.default_rng(42)
        k = rng.standard_normal((6, 5, 3, 3))
        err = relative_error(
            partial_tucker(k, (0, 1), (d2, d1)).to_full(), k
        )
        err_more = relative_error(
            partial_tucker(k, (0, 1), (min(6, d2 + 1), min(5, d1 + 1))).to_full(), k
        )
        assert err_more <= err + 1e-9


def svd_left_vectors(matrix, rank):
    """Reference leading left singular vectors: economy SVD, padded by
    QR of ``[U | I]`` when ``rank`` exceeds the column count."""
    m = matrix.shape[0]
    rank = min(rank, m)
    u = np.linalg.svd(matrix, full_matrices=False)[0][:, :rank]
    if u.shape[1] < rank:
        u = np.linalg.qr(np.concatenate([u, np.eye(m)], axis=1))[0][:, :rank]
    return u


def svd_partial_tucker(tensor, modes, ranks, n_iter, tol=1e-8):
    """Reference HOSVD init + HOOI sweeps built on the SVD."""
    factors = [svd_left_vectors(unfold(tensor, m), r) for m, r in zip(modes, ranks)]
    prev_err = None
    for _ in range(n_iter):
        for i, mode in enumerate(modes):
            others = [f for j, f in enumerate(factors) if j != i]
            other_modes = [m for j, m in enumerate(modes) if j != i]
            projected = multi_mode_dot(tensor, others, other_modes, transpose=True)
            factors[i] = svd_left_vectors(unfold(projected, mode), ranks[i])
        core = multi_mode_dot(tensor, factors, modes, transpose=True)
        err = relative_error(multi_mode_dot(core, factors, modes), tensor)
        if prev_err is not None and abs(prev_err - err) < tol:
            break
        prev_err = err
    core = multi_mode_dot(tensor, factors, modes, transpose=True)
    return multi_mode_dot(core, factors, modes)


class TestHOOIMatchesSVDReference:
    """``partial_tucker`` takes its bases from Gram eigendecompositions;
    the fit must match an SVD-based HOOI to rounding."""

    # (N, C, R, S) and (rank_out, rank_in) of every Tucker-2 site in
    # hostbench's exec-resnet18 deploy (resnet18_slim on A100, 32x32,
    # budget 0.5, rank_step 4).
    @pytest.mark.parametrize(
        "shape, ranks",
        [
            ((16, 16, 3, 3), (12, 4)),
            ((32, 32, 3, 3), (28, 4)),
            ((64, 32, 3, 3), (12, 24)),
            ((64, 64, 3, 3), (16, 24)),
            ((128, 64, 3, 3), (20, 56)),
            ((128, 128, 3, 3), (28, 88)),
        ],
    )
    def test_reconstruction_error_matches(self, shape, ranks):
        k = np.random.default_rng(shape[0] + shape[1]).standard_normal(shape)
        k *= np.sqrt(2.0 / (shape[1] * shape[2] * shape[3]))
        t = partial_tucker(k, modes=(0, 1), ranks=ranks, n_iter=10)
        ref = svd_partial_tucker(k, (0, 1), ranks, n_iter=10)
        assert relative_error(t.to_full(), k) == pytest.approx(
            relative_error(ref, k), abs=1e-9
        )

    def test_rank_above_projected_extent(self, rng):
        # After mode 1 is projected to rank 2, mode 0's unfolding has
        # 2 * 1 * 1 columns for a requested rank of 5: the basis is
        # padded.  Which complement pads it is arbitrary (an SVD-based
        # HOOI may pad differently), so only the invariants are pinned.
        k = rng.standard_normal((6, 4, 1, 1))
        t = partial_tucker(k, modes=(0, 1), ranks=(5, 2), n_iter=3)
        assert t.ranks == (5, 2)
        for f in t.factors:
            np.testing.assert_allclose(f.T @ f, np.eye(f.shape[1]), atol=1e-10)
        hosvd_err = relative_error(
            partial_tucker(k, modes=(0, 1), ranks=(5, 2)).to_full(), k
        )
        assert relative_error(t.to_full(), k) <= hosvd_err + 1e-12


class TestFullTucker:
    def test_hosvd_requires_all_ranks(self, rng):
        with pytest.raises(ValueError):
            hosvd(rng.standard_normal((3, 4, 5)), [2, 2])

    def test_hosvd_full_rank_lossless(self, rng):
        t = rng.standard_normal((4, 5, 3))
        dec = hosvd(t, [4, 5, 3])
        assert relative_error(dec.to_full(), t) < 1e-12

    def test_hooi_converges(self, rng):
        t = rng.standard_normal((6, 6, 6))
        dec = hooi(t, [3, 3, 3], n_iter=30)
        assert relative_error(dec.to_full(), t) < 1.0

    def test_n_params(self, rng):
        dec = hosvd(rng.standard_normal((4, 5, 6)), [2, 2, 2])
        assert dec.n_params() == 2 * 2 * 2 + 4 * 2 + 5 * 2 + 6 * 2


class TestTucker2Projection:
    def test_projection_idempotent(self, rng):
        k = rng.standard_normal((8, 6, 3, 3))
        p1 = tucker2_project(k, 4, 3)
        p2 = tucker2_project(p1, 4, 3)
        np.testing.assert_allclose(p1, p2, atol=1e-10)

    def test_projection_non_expansive(self, rng):
        k = rng.standard_normal((8, 6, 3, 3))
        p = tucker2_project(k, 4, 3)
        assert np.linalg.norm(p.ravel()) <= np.linalg.norm(k.ravel()) + 1e-10

    def test_projection_decreases_distance_to_set(self, rng):
        """proj(K) is the closest rank-constrained point for the HOSVD
        per-mode truncation (within tolerance of true optimum)."""
        k = low_tucker_rank_kernel(rng) + 0.01 * rng.standard_normal((12, 10, 3, 3))
        p = tucker2_project(k, 4, 5)
        assert relative_error(p, k) < 0.05

    def test_projection_of_in_set_point_is_identity(self, rng):
        k = low_tucker_rank_kernel(rng)
        np.testing.assert_allclose(tucker2_project(k, 4, 5), k, atol=1e-8)

    def test_projection_requires_4d(self, rng):
        with pytest.raises(ValueError):
            tucker2_project(rng.standard_normal((3, 3, 3)), 2, 2)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_projection_properties_random(self, seed):
        rng = np.random.default_rng(seed)
        k = rng.standard_normal((5, 4, 2, 2))
        p = tucker2_project(k, 3, 2)
        # Idempotence and non-expansiveness on arbitrary inputs.
        np.testing.assert_allclose(tucker2_project(p, 3, 2), p, atol=1e-8)
        assert np.linalg.norm(p) <= np.linalg.norm(k) + 1e-10


class TestConvKernelDecomposition:
    def test_factor_shapes(self, rng):
        k = rng.standard_normal((12, 10, 3, 3))
        u_out, core, u_in = tucker2_conv_kernel(k, rank_out=5, rank_in=4)
        assert u_out.shape == (12, 5)
        assert core.shape == (5, 4, 3, 3)
        assert u_in.shape == (10, 4)

    def test_reconstruction_error_reported(self, rng):
        k = low_tucker_rank_kernel(rng)
        assert tucker2_relative_error(k, 4, 5) < 1e-8
        assert tucker2_relative_error(k, 2, 2) > 1e-3

    def test_requires_4d(self, rng):
        with pytest.raises(ValueError):
            tucker2_conv_kernel(rng.standard_normal((3, 3, 3)), 2, 2)

    def test_params_formula(self):
        # Eq. 5 denominator: C*D1 + R*S*D1*D2 + N*D2
        assert tucker2_params(n=64, c=32, r=3, s=3, rank_out=8, rank_in=4) == (
            32 * 4 + 9 * 4 * 8 + 64 * 8
        )


class TestTuckerTensorValidation:
    def test_mismatched_factor_raises(self, rng):
        core = rng.standard_normal((2, 3))
        with pytest.raises(ValueError):
            TuckerTensor(core=core, factors=[rng.standard_normal((5, 4))], modes=(0,))

    def test_factor_mode_length_mismatch(self, rng):
        core = rng.standard_normal((2, 3))
        with pytest.raises(ValueError):
            TuckerTensor(core=core, factors=[rng.standard_normal((5, 2))], modes=(0, 1))
