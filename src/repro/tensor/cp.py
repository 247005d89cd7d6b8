"""CP (CANDECOMP/PARAFAC) decomposition via alternating least squares.

Used to implement the "Stable"/CP-based comparator from the paper's
Table 3 (Lebedev et al. / Phan et al. style conv compression).  The
paper notes two CP limitations we reproduce in experiments: a single
shared rank across all modes, and inferior stability/accuracy relative
to Tucker at matched budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.tensor.unfold import as_float, khatri_rao, relative_error
from repro.utils.rng import new_rng
from repro.utils.validation import check_positive_int


@dataclass
class CPTensor:
    """A tensor in CP format: sum of ``rank`` outer products.

    ``weights`` holds the per-component scale; ``factors[k]`` has shape
    ``(tensor.shape[k], rank)``.
    """

    weights: np.ndarray
    factors: List[np.ndarray]

    def __post_init__(self) -> None:
        # Preserve float dtypes (float32 weights stay float32); only
        # non-float inputs are promoted.
        self.weights = as_float(self.weights)
        self.factors = [as_float(f) for f in self.factors]
        if self.weights.ndim != 1:
            raise ValueError("weights must be 1-D")
        rank = self.weights.shape[0]
        for i, f in enumerate(self.factors):
            if f.ndim != 2 or f.shape[1] != rank:
                raise ValueError(
                    f"factor {i} must have shape (dim, {rank}), got {f.shape}"
                )

    @property
    def rank(self) -> int:
        return int(self.weights.shape[0])

    @property
    def full_shape(self) -> Tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    def n_params(self) -> int:
        return int(sum(f.size for f in self.factors) + self.weights.size)

    def to_full(self) -> np.ndarray:
        """Reconstruct the dense tensor from the CP factors."""
        # Mode-0 unfolding of a CP tensor: A0 diag(w) (A_{d-1} ⊙ ... ⊙ A_1)^T
        kr = khatri_rao(self.factors[1:]) if len(self.factors) > 1 else np.ones((1, self.rank))
        mat = (self.factors[0] * self.weights[None, :]) @ kr.T
        return mat.reshape(self.full_shape)


def cp_als(
    tensor: np.ndarray,
    rank: int,
    n_iter: int = 100,
    tol: float = 1e-7,
    seed: Optional[int] = 0,
    l2_reg: float = 1e-10,
) -> CPTensor:
    """CP decomposition by ALS with random init and column normalization.

    Each sweep updates the modes in order, each by a regularized least
    squares solve against its MTTKRP (the mode's unfolding times the
    Khatri-Rao product of the other factors).  The full Khatri-Rao
    product is never formed.  The modes split into a leading and a
    trailing half, and the tensor, matricized as (leading × trailing),
    is contracted once per half per sweep: for an (N, C, R, S) kernel,
    ``X(NC×RS) @ (A_R ⊙ A_S)`` feeds both the N and C updates and
    ``(A_N ⊙ A_C)ᵀ X(NC×RS)`` feeds R and S.  A rank-batched
    contraction with the half's other factors finishes each MTTKRP.
    Within a half only that half's factors change, so every update sees
    the same factors as the textbook sweep.

    The fit needs no dense rebuild either: ``‖X − X̂‖² = ‖X‖² −
    2⟨X, X̂⟩ + ‖X̂‖²``, with ``⟨X, X̂⟩`` from the last mode's MTTKRP and
    ``‖X̂‖²`` from the factor Grams, accumulated in float64.  The sweep
    stops when the relative error moves by less than ``tol``.  Factors
    and weights keep a float input's dtype.

    ``l2_reg`` is a small Tikhonov term on the normal equations — the
    classic mitigation for CP's "degenerate/swamp" instability (which is
    one of the limitations the paper cites for CP-based compression).
    """
    tensor = as_float(tensor)
    dtype = tensor.dtype
    rank = check_positive_int("rank", rank)
    if tensor.ndim < 2:
        raise ValueError("cp_als needs a tensor of order >= 2")
    n_iter = check_positive_int("n_iter", n_iter)
    rng = new_rng(seed)

    factors = [
        (rng.standard_normal((dim, rank)) / np.sqrt(max(dim, 1))).astype(
            dtype, copy=False
        )
        for dim in tensor.shape
    ]
    grams = [f.T @ f for f in factors]
    order = tensor.ndim
    split = order // 2
    lead_shape, trail_shape = tensor.shape[:split], tensor.shape[split:]
    mat = tensor.reshape(int(np.prod(lead_shape)), -1)
    flat = tensor.ravel().astype(np.float64, copy=False)
    norm_sq = float(flat @ flat)
    weights = np.ones(rank, dtype=dtype)
    prev_err = np.inf
    eye = np.eye(rank, dtype=dtype)

    def update(mode: int, mttkrp: np.ndarray) -> np.ndarray:
        # Gram of the Khatri-Rao product = Hadamard of the Grams.
        gram = np.ones((rank, rank), dtype=dtype)
        for m in range(order):
            if m != mode:
                gram *= grams[m]
        sol = np.linalg.solve(gram + l2_reg * eye, mttkrp.T).T
        # Normalize columns into weights for numerical stability.
        norms = np.linalg.norm(sol, axis=0)
        norms = np.where(norms > 0, norms, 1.0)
        factors[mode] = sol / norms[None, :]
        grams[mode] = factors[mode].T @ factors[mode]
        return norms

    # X contracted with the trailing factors is as large as the tensor:
    # one buffer serves every sweep, where a fresh array per sweep kept
    # the allocator mapping and faulting in new pages.
    lead_partial = np.empty((rank, mat.shape[0]), dtype)
    for _ in range(n_iter):
        # (rank, *lead_shape): X contracted with the trailing factors.
        partial = np.matmul(khatri_rao(factors[split:]).T, mat.T,
                            out=lead_partial).reshape(rank, *lead_shape)
        for i in range(split):
            weights = update(i, _finish_mttkrp(partial, factors[:split], i))
        # (rank, *trail_shape): X contracted with the leading factors.
        partial = (khatri_rao(factors[:split]).T @ mat).reshape(
            rank, *trail_shape
        )
        for i in range(order - split):
            mttkrp = _finish_mttkrp(partial, factors[split:], i)
            weights = update(split + i, mttkrp)
        err = _relative_fit_error(norm_sq, mttkrp, factors[-1], weights, grams)
        if abs(prev_err - err) < tol:
            break
        prev_err = err

    return CPTensor(weights=weights, factors=factors)


def _finish_mttkrp(
    partial: np.ndarray, factors: List[np.ndarray], i: int
) -> np.ndarray:
    """MTTKRP of one mode of a half from the half's partial contraction.

    ``partial`` has shape ``(rank, *dims)`` over the half's modes, and
    ``factors`` are that half's factors.  Contracting ``partial`` with
    every factor but ``factors[i]`` is one matmul batched over the
    rank: ``(rank, dims[i], rest) @ (rank, rest, 1)``.  Returns the
    ``(dims[i], rank)`` MTTKRP.
    """
    rank = partial.shape[0]
    others = factors[:i] + factors[i + 1:]
    if not others:
        return partial.T
    moved = np.moveaxis(partial, i + 1, 1).reshape(
        rank, partial.shape[i + 1], -1
    )
    kr = khatri_rao(others)
    return np.matmul(moved, kr.T[:, :, None])[:, :, 0].T


def _relative_fit_error(
    norm_sq: float,
    mttkrp: np.ndarray,
    factor: np.ndarray,
    weights: np.ndarray,
    grams: List[np.ndarray],
) -> float:
    """``‖X − X̂‖ / ‖X‖`` from the Grams, without rebuilding ``X̂``.

    ``mttkrp`` and ``factor`` belong to the mode updated last, so
    ``⟨X, X̂⟩ = Σ_r w_r Σ_i mttkrp[i, r] factor[i, r]``; ``‖X̂‖² =
    wᵀ (G_0 ∘ … ∘ G_{d-1}) w``.  Summed in float64: the difference
    cancels to the residual.
    """
    if norm_sq == 0.0:
        return 0.0
    w = weights.astype(np.float64)
    inner = w @ np.sum(
        mttkrp.astype(np.float64) * factor.astype(np.float64), axis=0
    )
    hadamard = np.ones((w.size, w.size))
    for g in grams:
        hadamard *= g
    approx_sq = w @ hadamard @ w
    return float(np.sqrt(max(norm_sq - 2.0 * inner + approx_sq, 0.0) / norm_sq))


def cp_conv_kernel(
    kernel: np.ndarray, rank: int, n_iter: int = 60, seed: Optional[int] = 0
) -> CPTensor:
    """CP-decompose a 4-D conv kernel ``(N, C, R, S)`` with shared rank.

    Note the CP constraint the paper highlights: *one* rank shared by
    all four modes, so the read/write load ratio cannot be tuned the
    way Tucker's (D1, D2) can.
    """
    kernel = np.asarray(kernel)
    if kernel.ndim != 4:
        raise ValueError(f"conv kernel must be 4-D, got {kernel.shape}")
    return cp_als(kernel, rank=rank, n_iter=n_iter, seed=seed)


def cp_relative_error(tensor: np.ndarray, cp: CPTensor) -> float:
    """Relative reconstruction error of a CP approximation."""
    return relative_error(cp.to_full(), tensor)
