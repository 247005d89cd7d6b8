"""Tests for mode-n unfolding, folding, and n-mode products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.unfold import (
    fold,
    khatri_rao,
    kronecker,
    leading_left_singular_vectors,
    mode_dot,
    multi_mode_dot,
    relative_error,
    tensor_norm,
    unfold,
)


@st.composite
def small_tensors(draw, max_order=4, max_dim=5):
    order = draw(st.integers(min_value=2, max_value=max_order))
    shape = tuple(
        draw(st.integers(min_value=1, max_value=max_dim)) for _ in range(order)
    )
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return np.random.default_rng(seed).standard_normal(shape)


class TestUnfoldFold:
    def test_unfold_shape(self, rng):
        t = rng.standard_normal((3, 4, 5))
        assert unfold(t, 0).shape == (3, 20)
        assert unfold(t, 1).shape == (4, 15)
        assert unfold(t, 2).shape == (5, 12)

    def test_unfold_mode0_matches_reshape(self, rng):
        t = rng.standard_normal((3, 4, 5))
        np.testing.assert_array_equal(unfold(t, 0), t.reshape(3, 20))

    def test_unfold_known_values(self):
        # Kolda & Bader example structure: fibers become columns.
        t = np.arange(24).reshape(2, 3, 4)
        u1 = unfold(t, 1)
        assert u1.shape == (3, 8)
        np.testing.assert_array_equal(u1[0], t[:, 0, :].ravel())

    def test_negative_mode(self, rng):
        t = rng.standard_normal((3, 4, 5))
        np.testing.assert_array_equal(unfold(t, -1), unfold(t, 2))

    def test_unfold_invalid_mode(self, rng):
        t = rng.standard_normal((3, 4))
        with pytest.raises(ValueError):
            unfold(t, 2)
        with pytest.raises(TypeError):
            unfold(t, 1.5)

    @given(small_tensors())
    @settings(max_examples=30, deadline=None)
    def test_fold_inverts_unfold(self, t):
        for mode in range(t.ndim):
            np.testing.assert_array_equal(
                fold(unfold(t, mode), mode, t.shape), t
            )

    def test_fold_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            fold(rng.standard_normal((3, 21)), 0, (3, 4, 5))

    def test_fold_rejects_non_matrix(self, rng):
        with pytest.raises(ValueError):
            fold(rng.standard_normal((3, 4, 5)), 0, (3, 4, 5))


class TestModeDot:
    def test_mode_dot_shape(self, rng):
        t = rng.standard_normal((3, 4, 5))
        m = rng.standard_normal((7, 4))
        out = mode_dot(t, m, 1)
        assert out.shape == (3, 7, 5)

    def test_mode_dot_matches_unfold_identity(self, rng):
        t = rng.standard_normal((3, 4, 5))
        m = rng.standard_normal((6, 4))
        out = mode_dot(t, m, 1)
        np.testing.assert_allclose(unfold(out, 1), m @ unfold(t, 1), atol=1e-12)

    def test_mode_dot_identity(self, rng):
        t = rng.standard_normal((3, 4, 5))
        np.testing.assert_allclose(mode_dot(t, np.eye(4), 1), t, atol=1e-14)

    def test_mode_dot_dim_mismatch(self, rng):
        t = rng.standard_normal((3, 4, 5))
        with pytest.raises(ValueError):
            mode_dot(t, rng.standard_normal((6, 3)), 1)

    def test_mode_dot_needs_matrix(self, rng):
        t = rng.standard_normal((3, 4, 5))
        with pytest.raises(ValueError):
            mode_dot(t, rng.standard_normal((6,)), 1)

    @given(small_tensors(max_order=3))
    @settings(max_examples=20, deadline=None)
    def test_mode_dot_commutes_across_modes(self, t):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, t.shape[0]))
        b = rng.standard_normal((3, t.shape[-1]))
        ab = mode_dot(mode_dot(t, a, 0), b, t.ndim - 1)
        ba = mode_dot(mode_dot(t, b, t.ndim - 1), a, 0)
        np.testing.assert_allclose(ab, ba, atol=1e-10)

    def test_multi_mode_dot_transpose(self, rng):
        t = rng.standard_normal((4, 5))
        u = rng.standard_normal((4, 2))
        out = multi_mode_dot(t, [u], [0], transpose=True)
        np.testing.assert_allclose(out, u.T @ t, atol=1e-12)

    def test_multi_mode_dot_length_mismatch(self, rng):
        t = rng.standard_normal((3, 4))
        with pytest.raises(ValueError):
            multi_mode_dot(t, [np.eye(3)], [0, 1])


class TestProducts:
    def test_kronecker_shape(self, rng):
        a = rng.standard_normal((2, 3))
        b = rng.standard_normal((4, 5))
        assert kronecker([a, b]).shape == (8, 15)

    def test_kronecker_empty(self):
        with pytest.raises(ValueError):
            kronecker([])

    def test_khatri_rao_shape(self, rng):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((5, 4))
        assert khatri_rao([a, b]).shape == (15, 4)

    def test_khatri_rao_columns_are_kron(self, rng):
        a = rng.standard_normal((3, 2))
        b = rng.standard_normal((4, 2))
        kr = khatri_rao([a, b])
        for col in range(2):
            np.testing.assert_allclose(
                kr[:, col], np.kron(a[:, col], b[:, col]), atol=1e-12
            )

    def test_khatri_rao_column_mismatch(self, rng):
        with pytest.raises(ValueError):
            khatri_rao([rng.standard_normal((3, 2)), rng.standard_normal((4, 3))])


class TestNormsAndSVD:
    def test_tensor_norm(self, rng):
        t = rng.standard_normal((3, 4, 5))
        assert tensor_norm(t) == pytest.approx(np.linalg.norm(t.ravel()))

    def test_relative_error_zero_ref(self):
        assert relative_error(np.zeros(3), np.zeros(3)) == 0.0
        assert relative_error(np.ones(3), np.zeros(3)) == float("inf")

    def test_leading_left_singular_vectors_orthonormal(self, rng):
        m = rng.standard_normal((6, 40))
        u = leading_left_singular_vectors(m, 4)
        np.testing.assert_allclose(u.T @ u, np.eye(4), atol=1e-10)

    def test_gram_trick_matches_svd(self, rng):
        # Wide, tall, square, and tall with every column kept.  Each
        # has a planted spectrum with a gap after ``rank``, so the
        # leading subspace is well defined.
        for (m, n), rank in (((5, 100), 3), ((40, 6), 4), ((12, 12), 5),
                             ((10, 3), 3)):
            k = min(m, n)
            u, _ = np.linalg.qr(rng.standard_normal((m, k)))
            v, _ = np.linalg.qr(rng.standard_normal((n, k)))
            sigma = np.concatenate(
                [np.linspace(10.0, 5.0, rank), np.linspace(1.0, 0.1, k - rank)]
            )
            a = (u * sigma) @ v.T
            u_gram = leading_left_singular_vectors(a, rank)
            assert u_gram.shape == (m, rank)
            np.testing.assert_allclose(
                u_gram.T @ u_gram, np.eye(rank), atol=1e-10
            )
            u_svd, _, _ = np.linalg.svd(a, full_matrices=False)
            # Subspaces must agree (columns up to sign).
            proj = u_gram.T @ u_svd[:, :rank]
            np.testing.assert_allclose(
                np.abs(np.linalg.det(proj)), 1.0, atol=1e-8, err_msg=str((m, n))
            )

    def test_rank_above_column_count_pads_orthonormal_complement(self, rng):
        # HOOI's projected unfoldings: fewer columns than the rank asked.
        a = rng.standard_normal((10, 3))
        u = leading_left_singular_vectors(a, 6)
        assert u.shape == (10, 6)
        np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-10)
        u_svd, _, _ = np.linalg.svd(a, full_matrices=False)
        proj = u[:, :3].T @ u_svd
        np.testing.assert_allclose(np.abs(np.linalg.det(proj)), 1.0, atol=1e-8)
        # The padding columns are orthogonal to the matrix's range.
        np.testing.assert_allclose(u[:, 3:].T @ a, 0.0, atol=1e-10)

    def test_rank_clipped_to_rows(self, rng):
        m = rng.standard_normal((3, 10))
        assert leading_left_singular_vectors(m, 10).shape == (3, 3)
