"""Tests for CP-ALS, TT-SVD, and EVBMF rank estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor.cp import CPTensor, cp_als, cp_conv_kernel, cp_relative_error
from repro.tensor.tt import TTTensor, tt_conv_kernel, tt_relative_error, tt_svd
from repro.tensor.unfold import khatri_rao, unfold
from repro.tensor.vbmf import evbmf, evbmf_rank, suggest_tucker2_ranks


def rank_r_tensor(rng, shape, rank):
    """Exact CP-rank-``rank`` tensor."""
    factors = [rng.standard_normal((dim, rank)) for dim in shape]
    t = np.zeros(shape)
    for k in range(rank):
        outer = factors[0][:, k]
        for f in factors[1:]:
            outer = np.multiply.outer(outer, f[:, k])
        t += outer
    return t


def khatri_rao_cp_als(tensor, rank, n_iter, tol=1e-7, seed=0, l2_reg=1e-10):
    """Reference CP-ALS: the textbook sweep ``cp_als`` must reproduce.

    Every mode update multiplies the mode's unfolding by the full
    Khatri-Rao product of the other factors, and every sweep rebuilds
    the dense tensor to measure the fit.  Same init, regularizer,
    normalization and stopping rule as ``cp_als``.  Returns the result
    and the relative error after each sweep run.
    """
    dtype = tensor.dtype
    rng = np.random.default_rng(seed)
    factors = [
        (rng.standard_normal((dim, rank)) / np.sqrt(max(dim, 1))).astype(dtype)
        for dim in tensor.shape
    ]
    unfoldings = [unfold(tensor, m) for m in range(tensor.ndim)]
    norm_t = np.linalg.norm(tensor.ravel())
    weights = np.ones(rank, dtype=dtype)
    eye = np.eye(rank, dtype=dtype)
    prev_err = np.inf
    errs = []
    for _ in range(n_iter):
        for mode in range(tensor.ndim):
            others = [factors[m] for m in range(tensor.ndim) if m != mode]
            gram = np.ones((rank, rank), dtype=dtype)
            for f in others:
                gram *= f.T @ f
            rhs = unfoldings[mode] @ khatri_rao(others)
            sol = np.linalg.solve(gram + l2_reg * eye, rhs.T).T
            norms = np.linalg.norm(sol, axis=0)
            norms = np.where(norms > 0, norms, 1.0)
            factors[mode] = sol / norms[None, :]
            weights = norms
        approx = CPTensor(weights=weights, factors=factors).to_full()
        err = np.linalg.norm((approx - tensor).ravel()) / norm_t
        errs.append(err)
        if abs(prev_err - err) < tol:
            break
        prev_err = err
    return CPTensor(weights=weights, factors=factors), errs


def max_cp_difference(a, b):
    return max(
        [np.max(np.abs(a.weights - b.weights))]
        + [np.max(np.abs(x - y)) for x, y in zip(a.factors, b.factors)]
    )


class TestCPMatchesKhatriRaoSweep:
    """``cp_als`` never forms the full Khatri-Rao product nor the dense
    reconstruction; it must still follow the textbook sweep to
    rounding, sweep for sweep."""

    @pytest.mark.parametrize(
        "shape, rank",
        [
            ((8, 6), 3),              # order 2
            ((6, 5, 4), 3),           # order 3
            ((5, 4, 3, 3), 4),        # order 4, a conv kernel
            ((4, 3, 3, 2, 3), 3),     # order 5
            ((12, 10, 1, 1), 6),      # (N, C, 1, 1) kernel
            ((6, 5, 3), 4),           # rank above a mode's extent
            ((7, 6, 3, 3), 5),        # ... on a conv kernel
        ],
    )
    def test_matches_reference(self, shape, rank):
        t = np.random.default_rng(sum(shape) + rank).standard_normal(shape)
        ref, _ = khatri_rao_cp_als(t, rank, n_iter=30, seed=1)
        cp = cp_als(t, rank, n_iter=30, seed=1)
        assert max_cp_difference(cp, ref) < 1e-10

    def test_stops_early_on_the_same_sweep(self, rng):
        t = rng.standard_normal((6, 5, 4))
        _, errs = khatri_rao_cp_als(t, 3, n_iter=500, tol=0.0)
        steps = np.abs(np.diff(errs))
        # The first fit step below 1e-4, and tolerances a millionth
        # above and below it: the fit cp_als derives from the Grams
        # must equal the dense one closely enough that the first stops
        # on that sweep and the second does not.
        j = int(np.argmax(steps < 1e-4))
        stopped = []
        for tol in (steps[j] * (1 + 1e-6), steps[j] * (1 - 1e-6)):
            ref, ref_errs = khatri_rao_cp_als(t, 3, n_iter=500, tol=tol)
            cp = cp_als(t, 3, n_iter=500, tol=tol)
            assert max_cp_difference(cp, ref) < 1e-10
            # Results one sweep apart differ by far more than that, so
            # the agreement pins the sweep count.
            sweeps = len(ref_errs)
            for n in (sweeps - 1, sweeps + 1):
                other, _ = khatri_rao_cp_als(t, 3, n_iter=n, tol=0.0)
                assert max_cp_difference(other, ref) > 1e-6
            stopped.append(sweeps)
        assert stopped[0] == j + 2 < stopped[1] < 500

    def test_float32_stays_float32(self, rng):
        t = rng.standard_normal((6, 5, 3, 3)).astype(np.float32)
        cp = cp_als(t, rank=4, n_iter=10)
        assert cp.weights.dtype == np.float32
        assert all(f.dtype == np.float32 for f in cp.factors)
        ref, _ = khatri_rao_cp_als(t, 4, n_iter=10)
        assert max_cp_difference(cp, ref) < 1e-3


class TestCP:
    def test_recovers_exact_low_rank(self, rng):
        t = rank_r_tensor(rng, (6, 5, 4), 2)
        cp = cp_als(t, rank=3, n_iter=200, seed=0)
        assert cp_relative_error(t, cp) < 1e-5

    def test_full_reconstruction_shape(self, rng):
        t = rng.standard_normal((4, 3, 5))
        cp = cp_als(t, rank=2, n_iter=10)
        assert cp.to_full().shape == t.shape

    def test_error_decreases_with_rank(self, rng):
        t = rng.standard_normal((5, 5, 5))
        errs = [
            cp_relative_error(t, cp_als(t, rank=r, n_iter=60, seed=0))
            for r in (1, 4, 16)
        ]
        assert errs[2] <= errs[0] + 0.05

    def test_matrix_case_matches_svd_error(self, rng):
        m = rng.standard_normal((8, 6))
        cp = cp_als(m, rank=3, n_iter=200, seed=0)
        u, s, vt = np.linalg.svd(m)
        svd_err = np.sqrt(np.sum(s[3:] ** 2)) / np.linalg.norm(m)
        assert cp_relative_error(m, cp) <= svd_err + 0.02

    def test_weights_nonnegative(self, rng):
        cp = cp_als(rng.standard_normal((4, 4, 4)), rank=3, n_iter=20)
        assert np.all(cp.weights >= 0)

    def test_n_params(self, rng):
        cp = cp_als(rng.standard_normal((4, 5, 6)), rank=2, n_iter=5)
        assert cp.n_params() == 2 * (4 + 5 + 6) + 2

    def test_conv_kernel_requires_4d(self, rng):
        with pytest.raises(ValueError):
            cp_conv_kernel(rng.standard_normal((3, 3, 3)), rank=2)

    def test_conv_kernel_roundtrip(self, rng):
        k = rank_r_tensor(rng, (6, 5, 3, 3), 2)
        cp = cp_conv_kernel(k, rank=4, n_iter=150)
        assert cp_relative_error(k, cp) < 1e-3

    def test_invalid_rank(self, rng):
        with pytest.raises(ValueError):
            cp_als(rng.standard_normal((3, 3)), rank=0)

    def test_cptensor_validation(self, rng):
        with pytest.raises(ValueError):
            CPTensor(weights=np.ones(2), factors=[rng.standard_normal((3, 3))])


class TestTT:
    def test_full_ranks_lossless(self, rng):
        t = rng.standard_normal((4, 5, 6))
        tt = tt_svd(t, max_ranks=[4, 24])
        assert tt_relative_error(t, tt) < 1e-10

    def test_rank_capping(self, rng):
        t = rng.standard_normal((4, 5, 6))
        tt = tt_svd(t, max_ranks=[2, 3])
        assert tt.ranks == (2, 3)

    def test_boundary_ranks_one(self, rng):
        tt = tt_svd(rng.standard_normal((3, 4, 5)), max_ranks=[2, 2])
        assert tt.cores[0].shape[0] == 1
        assert tt.cores[-1].shape[-1] == 1

    def test_error_monotone_in_rank(self, rng):
        t = rng.standard_normal((5, 6, 4))
        e_small = tt_relative_error(t, tt_svd(t, [1, 1]))
        e_big = tt_relative_error(t, tt_svd(t, [4, 4]))
        assert e_big <= e_small + 1e-9

    def test_matrix_tt_equals_svd_truncation(self, rng):
        m = rng.standard_normal((6, 8))
        tt = tt_svd(m, max_ranks=[2])
        u, s, vt = np.linalg.svd(m, full_matrices=False)
        svd_err = np.sqrt(np.sum(s[2:] ** 2)) / np.linalg.norm(m)
        assert tt_relative_error(m, tt) == pytest.approx(svd_err, abs=1e-8)

    def test_conv_kernel_flattens_spatial(self, rng):
        k = rng.standard_normal((6, 5, 3, 3))
        tt = tt_conv_kernel(k, max_ranks=[3, 4])
        assert tt.full_shape == (6, 5, 9)

    def test_rank_count_validation(self, rng):
        with pytest.raises(ValueError):
            tt_svd(rng.standard_normal((3, 4, 5)), max_ranks=[2])

    def test_tttensor_validation(self, rng):
        with pytest.raises(ValueError):
            TTTensor(cores=[rng.standard_normal((2, 3, 1))])  # boundary != 1

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_reconstruction_never_larger_norm_gap(self, seed):
        rng = np.random.default_rng(seed)
        t = rng.standard_normal((3, 4, 3))
        tt = tt_svd(t, max_ranks=[3, 3])
        # TT-SVD error is bounded by sqrt(d-1) * best rank truncation.
        assert tt_relative_error(t, tt) <= np.sqrt(2.0) + 1e-9


class TestEVBMF:
    def test_recovers_planted_rank(self, rng):
        u = rng.standard_normal((40, 3))
        v = rng.standard_normal((3, 60))
        y = u @ v + 0.01 * rng.standard_normal((40, 60))
        assert evbmf(y).rank == 3

    def test_pure_noise_rank_zero(self, rng):
        y = 0.1 * rng.standard_normal((30, 50))
        assert evbmf(y).rank <= 1

    def test_transposed_input(self, rng):
        u = rng.standard_normal((60, 2))
        v = rng.standard_normal((2, 30))
        y = u @ v + 0.01 * rng.standard_normal((60, 30))  # rows > cols
        res = evbmf(y)
        assert res.rank == 2

    def test_reconstruction_shape(self, rng):
        y = rng.standard_normal((10, 20))
        res = evbmf(y)
        if res.rank > 0:
            recon = res.u @ np.diag(res.s) @ res.v
            assert recon.shape == y.shape

    def test_known_sigma2(self, rng):
        u = rng.standard_normal((30, 2))
        v = rng.standard_normal((2, 40))
        y = u @ v + 0.05 * rng.standard_normal((30, 40))
        res = evbmf(y, sigma2=0.05**2)
        assert res.rank == 2

    def test_rejects_non_matrix(self, rng):
        with pytest.raises(ValueError):
            evbmf(rng.standard_normal((3, 3, 3)))

    def test_rank_floor(self, rng):
        y = 0.01 * rng.standard_normal((20, 30))
        assert evbmf_rank(y, min_rank=2) >= 2

    def test_suggest_tucker2_ranks(self, rng):
        from repro.tensor.unfold import mode_dot

        core = rng.standard_normal((3, 4, 3, 3))
        u2 = rng.standard_normal((16, 3))
        u1 = rng.standard_normal((12, 4))
        k = mode_dot(mode_dot(core, u2, 0), u1, 1)
        k = k + 0.01 * rng.standard_normal(k.shape)
        r_out, r_in = suggest_tucker2_ranks(k)
        assert 2 <= r_out <= 6
        assert 2 <= r_in <= 8

    def test_suggest_weaken_validation(self, rng):
        k = rng.standard_normal((8, 8, 3, 3))
        with pytest.raises(ValueError):
            suggest_tucker2_ranks(k, weaken=0.0)

    def test_suggest_requires_4d(self, rng):
        with pytest.raises(ValueError):
            suggest_tucker2_ranks(rng.standard_normal((4, 4)))
