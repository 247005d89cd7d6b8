"""Empirical Variational Bayesian Matrix Factorization (EVBMF).

Analytic global solution of fully-observed VBMF following Nakajima,
Sugiyama, Babacan & Tomioka (JMLR 2013).  The MUSCO-style comparator
(Gusak et al. 2019, cited as [13] in the paper) estimates per-layer
Tucker ranks from the EVBMF rank of the mode-1/mode-2 unfoldings; this
module provides that estimator.

The estimator observes a noisy low-rank matrix and returns the number
of singular values that are distinguishable from noise, along with the
posterior-mean shrunken values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass
class EVBMFResult:
    """Result of :func:`evbmf`.

    Attributes
    ----------
    rank:
        Estimated rank (number of retained components).
    u, s, v:
        Truncated left vectors, shrunken singular values, right vectors
        (``u @ diag(s) @ v`` is the posterior-mean reconstruction).
    sigma2:
        Estimated (or supplied) noise variance.
    """

    rank: int
    u: np.ndarray
    s: np.ndarray
    v: np.ndarray
    sigma2: float


def _tau(x: np.ndarray, alpha: float) -> np.ndarray:
    """The tau(x; alpha) map from Nakajima et al. (Eq. for z > z̄)."""
    return 0.5 * (x - (1 + alpha) + np.sqrt((x - (1 + alpha)) ** 2 - 4 * alpha))


def _evb_sigma2_objective(
    sigma2: float,
    n_rows: int,
    n_cols: int,
    s: np.ndarray,
    residual: float,
    xubar: float,
) -> float:
    """Negative log-evidence profile in sigma^2 (to be minimized)."""
    h = len(s)
    alpha = n_rows / n_cols
    x = s**2 / (n_cols * sigma2)
    z1 = x[x > xubar]
    z2 = x[x <= xubar]
    term1 = np.sum(z2 - np.log(z2)) if z2.size else 0.0
    if z1.size:
        tau_z1 = _tau(z1, alpha)
        term2 = np.sum(z1 - tau_z1)
        term3 = np.sum(np.log((tau_z1 + 1.0) / z1))
        term4 = alpha * np.sum(np.log(tau_z1 / alpha + 1.0))
    else:
        term2 = term3 = term4 = 0.0
    return float(
        term1
        + term2
        + term3
        + term4
        + residual / (n_cols * sigma2)
        + (n_rows - h) * np.log(sigma2)
    )


def evbmf(
    matrix: np.ndarray, sigma2: Optional[float] = None, h: Optional[int] = None
) -> EVBMFResult:
    """Global analytic EVBMF solution of a fully observed matrix.

    Parameters
    ----------
    matrix:
        Observation matrix.  Internally transposed so rows <= cols.
    sigma2:
        Known noise variance, or ``None`` to estimate it by 1-D
        bounded minimization of the evidence (the usual mode).
    h:
        Maximum rank to consider (defaults to ``min(matrix.shape)``).
    """
    y = np.asarray(matrix, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"evbmf expects a matrix, got {y.ndim}-D")
    transposed = False
    if y.shape[0] > y.shape[1]:
        y = y.T
        transposed = True
    n_rows, n_cols = y.shape
    if h is None:
        h = n_rows
    h = int(min(h, n_rows))
    if h < 1:
        raise ValueError("h must be >= 1")

    alpha = n_rows / n_cols
    tauubar = 2.5129 * np.sqrt(alpha)

    u_full, s_full, vt_full = np.linalg.svd(y, full_matrices=False)
    u_full, s_full, vt_full = u_full[:, :h], s_full[:h], vt_full[:h, :]

    residual = 0.0
    if h < n_rows:
        residual = float(np.sum(y**2) - np.sum(s_full**2))
        residual = max(residual, 0.0)

    if sigma2 is None:
        xubar = (1.0 + tauubar) * (1.0 + alpha / tauubar)
        e_h_ub = int(min(np.ceil(n_rows / (1.0 + alpha)) - 1, h)) - 1
        e_h_ub = max(e_h_ub, 0)
        upper = (np.sum(s_full**2) + residual) / (n_rows * n_cols)
        tail = s_full[e_h_ub:] if s_full[e_h_ub:].size else s_full[-1:]
        lower = max(
            float(s_full[min(e_h_ub + 1, h - 1)] ** 2) / (n_cols * xubar),
            float(np.mean(tail**2)) / n_cols,
        )
        if not np.isfinite(lower) or lower <= 0:
            lower = 1e-30
        if upper <= lower:
            sigma2 = float(upper)
        else:
            # SciPy is needed only here: importing it at module level
            # would load it into every process that imports the library.
            from scipy.optimize import minimize_scalar

            res = minimize_scalar(
                _evb_sigma2_objective,
                args=(n_rows, n_cols, s_full, residual, xubar),
                bounds=(lower, upper),
                method="bounded",
            )
            sigma2 = float(res.x)
    sigma2 = max(float(sigma2), 1e-30)

    # Retention threshold and posterior-mean shrinkage.
    threshold = np.sqrt(n_cols * sigma2 * (1.0 + tauubar) * (1.0 + alpha / tauubar))
    pos = int(np.sum(s_full > threshold))
    if pos == 0:
        empty_u = np.zeros((n_rows, 0))
        empty_v = np.zeros((0, n_cols))
        if transposed:
            return EVBMFResult(0, empty_v.T, np.zeros(0), empty_u.T, sigma2)
        return EVBMFResult(0, empty_u, np.zeros(0), empty_v, sigma2)

    s_kept = s_full[:pos]
    ratio = (n_rows + n_cols) * sigma2 / s_kept**2
    disc = np.maximum(
        (1.0 - ratio) ** 2 - 4.0 * n_rows * n_cols * sigma2**2 / s_kept**4, 0.0
    )
    d = 0.5 * s_kept * (1.0 - ratio + np.sqrt(disc))

    u = u_full[:, :pos]
    vt = vt_full[:pos, :]
    if transposed:
        return EVBMFResult(pos, vt.T, d, u.T, sigma2)
    return EVBMFResult(pos, u, d, vt, sigma2)


def evbmf_rank(matrix: np.ndarray, min_rank: int = 1) -> int:
    """Estimated EVBMF rank of ``matrix``, floored at ``min_rank``.

    The MUSCO-style comparator calls this on the mode-1/mode-2
    unfoldings of each conv kernel to pick Tucker ranks, then weakens
    the ranks by a fixed ratio per compression round.
    """
    result = evbmf(matrix)
    return max(int(result.rank), int(min_rank))


def suggest_tucker2_ranks(
    kernel: np.ndarray, weaken: float = 1.0, min_rank: int = 1
) -> Tuple[int, int]:
    """EVBMF-based (D2, D1) rank suggestion for a 4-D conv kernel.

    ``weaken`` < 1 scales the estimated ranks down (MUSCO's gradual
    multi-stage compression); the floor keeps layers decomposable.
    """
    kernel = np.asarray(kernel)
    if kernel.ndim != 4:
        raise ValueError(f"conv kernel must be 4-D, got {kernel.shape}")
    if not 0 < weaken <= 1:
        raise ValueError(f"weaken must be in (0, 1], got {weaken}")
    n, c = kernel.shape[0], kernel.shape[1]
    r_out = evbmf_rank(kernel.reshape(n, -1), min_rank=min_rank)
    r_in = evbmf_rank(np.moveaxis(kernel, 1, 0).reshape(c, -1), min_rank=min_rank)
    r_out = max(min_rank, min(n, int(round(r_out * weaken))))
    r_in = max(min_rank, min(c, int(round(r_in * weaken))))
    return r_out, r_in
