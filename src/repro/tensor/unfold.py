"""Mode-n unfolding, folding, and n-mode products.

Conventions follow Kolda & Bader, "Tensor Decompositions and
Applications" (SIAM Review 2009), which is also what the paper's
mode-1/mode-2 matricization refers to:

- ``unfold(T, n)`` arranges mode-``n`` fibers as columns of a matrix of
  shape ``(T.shape[n], prod(other dims))``; the other modes are ordered
  by increasing index.
- ``mode_dot(T, M, n)`` contracts mode ``n`` of ``T`` with the second
  index of matrix ``M``: ``(T x_n M)[..., i, ...] = sum_j M[i, j] T[..., j, ...]``.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive_int


def _check_mode(tensor: np.ndarray, mode: int) -> int:
    if not isinstance(mode, (int, np.integer)) or isinstance(mode, bool):
        raise TypeError(f"mode must be an int, got {type(mode).__name__}")
    if not -tensor.ndim <= mode < tensor.ndim:
        raise ValueError(f"mode {mode} out of range for {tensor.ndim}-D tensor")
    return int(mode) % tensor.ndim


def unfold(tensor: np.ndarray, mode: int) -> np.ndarray:
    """Mode-``mode`` unfolding (matricization) of ``tensor``.

    Returns a matrix of shape ``(tensor.shape[mode], -1)`` whose columns
    are the mode-``mode`` fibers, with remaining modes in increasing
    index order (Kolda & Bader convention).
    """
    tensor = np.asarray(tensor)
    mode = _check_mode(tensor, mode)
    return np.moveaxis(tensor, mode, 0).reshape(tensor.shape[mode], -1)


def fold(matrix: np.ndarray, mode: int, shape: Sequence[int]) -> np.ndarray:
    """Inverse of :func:`unfold`: refold ``matrix`` into ``shape``.

    ``matrix`` must have shape ``(shape[mode], prod(shape)/shape[mode])``.
    """
    matrix = np.asarray(matrix)
    shape = tuple(int(s) for s in shape)
    if matrix.ndim != 2:
        raise ValueError(f"fold expects a matrix, got {matrix.ndim}-D input")
    mode = _check_mode(np.empty(shape), mode)
    full = [shape[mode]] + [s for i, s in enumerate(shape) if i != mode]
    expected = (shape[mode], int(np.prod(full[1:])) if len(full) > 1 else 1)
    if matrix.shape != expected:
        raise ValueError(
            f"matrix shape {matrix.shape} incompatible with fold to {shape} "
            f"along mode {mode} (expected {expected})"
        )
    return np.moveaxis(matrix.reshape(full), 0, mode)


def mode_dot(tensor: np.ndarray, matrix: np.ndarray, mode: int) -> np.ndarray:
    """n-mode product ``tensor x_mode matrix``.

    ``matrix`` has shape ``(new_dim, tensor.shape[mode])``; the result
    replaces mode ``mode``'s extent with ``new_dim``.
    """
    tensor = np.asarray(tensor)
    matrix = np.asarray(matrix)
    mode = _check_mode(tensor, mode)
    if matrix.ndim != 2:
        raise ValueError(f"mode_dot needs a matrix, got {matrix.ndim}-D")
    if matrix.shape[1] != tensor.shape[mode]:
        raise ValueError(
            f"matrix has {matrix.shape[1]} columns but tensor mode {mode} "
            f"has extent {tensor.shape[mode]}"
        )
    # tensordot contracts matrix axis 1 with tensor axis `mode`; the new
    # axis lands first, move it back into place.
    out = np.tensordot(matrix, tensor, axes=(1, mode))
    return np.moveaxis(out, 0, mode)


def multi_mode_dot(
    tensor: np.ndarray,
    matrices: Iterable[np.ndarray],
    modes: Iterable[int],
    transpose: bool = False,
) -> np.ndarray:
    """Chain of n-mode products over several modes.

    With ``transpose=True`` each matrix is transposed before the product
    (useful for projecting onto factor subspaces, ``T x_n U_n^T``).
    """
    matrices = list(matrices)
    modes = [int(m) for m in modes]
    if len(matrices) != len(modes):
        raise ValueError(
            f"got {len(matrices)} matrices but {len(modes)} modes"
        )
    out = np.asarray(tensor)
    for matrix, mode in zip(matrices, modes):
        m = matrix.T if transpose else matrix
        out = mode_dot(out, m, mode)
    return out


def kronecker(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence of matrices (left-to-right)."""
    if not matrices:
        raise ValueError("kronecker of empty sequence")
    out = np.asarray(matrices[0])
    for m in matrices[1:]:
        out = np.kron(out, np.asarray(m))
    return out


def khatri_rao(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Column-wise Khatri-Rao product (used by CP-ALS).

    All matrices must share the same number of columns ``R``; the result
    has ``prod(rows)`` rows and ``R`` columns.
    """
    matrices = [np.asarray(m) for m in matrices]
    if not matrices:
        raise ValueError("khatri_rao of empty sequence")
    n_cols = matrices[0].shape[1]
    for m in matrices:
        if m.ndim != 2 or m.shape[1] != n_cols:
            raise ValueError("khatri_rao requires matrices with equal column counts")
    out = matrices[0]
    for m in matrices[1:]:
        # (I, R) x (J, R) -> (I*J, R) via broadcasting
        out = (out[:, None, :] * m[None, :, :]).reshape(-1, n_cols)
    return out


def as_float(tensor: np.ndarray) -> np.ndarray:
    """Coerce to a floating array while preserving float dtypes.

    Mirrors the execution-dtype rule
    (:func:`repro.kernels.base.execution_dtype`): float inputs keep
    their precision end to end; integer/bool inputs are promoted to
    float64.  Decomposition code uses this instead of an unconditional
    ``dtype=np.float64`` so float32 model weights stay float32.
    """
    arr = np.asarray(tensor)
    if np.issubdtype(arr.dtype, np.floating):
        return arr
    return arr.astype(np.float64)


def tensor_norm(tensor: np.ndarray) -> float:
    """Frobenius norm of a tensor."""
    return float(np.linalg.norm(np.asarray(tensor).ravel()))


def relative_error(approx: np.ndarray, reference: np.ndarray) -> float:
    """``||approx - reference||_F / ||reference||_F`` (0 if both are 0)."""
    ref = tensor_norm(reference)
    diff = tensor_norm(np.asarray(approx) - np.asarray(reference))
    if ref == 0.0:
        return 0.0 if diff == 0.0 else float("inf")
    return diff / ref


def leading_left_singular_vectors(matrix: np.ndarray, rank: int) -> np.ndarray:
    """Top-``rank`` left singular vectors of ``matrix``, in float64.

    Takes the eigendecomposition of the ``m × m`` Gram ``A Aᵀ`` whatever
    the matrix's shape: its eigenvectors are the left singular vectors,
    ordered here by descending eigenvalue (the squared singular values).
    The unfoldings this serves have at most a few hundred rows, so the
    Gram is small.  Squaring the singular values loses accuracy in
    directions with small singular values; the leading subspace, and
    the reconstruction error built on it, move only by rounding where
    the spectrum has a gap at ``rank``.

    ``rank`` is clipped to ``m``.  A rank above ``min(m, n)`` (as happens
    inside HOOI sweeps after the other modes were projected down) keeps
    eigenvectors of the repeated zero eigenvalue: orthonormal complement
    columns orthogonal to the matrix's range, so the factor carries the
    requested rank.  Any orthonormal complement would do, and which one
    ``eigh`` returns is arbitrary; a later HOOI sweep that projects the
    full tensor onto the padded factor depends on that choice.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    rank = check_positive_int("rank", rank)
    rank = min(rank, matrix.shape[0])
    _, eigvecs = np.linalg.eigh(matrix @ matrix.T)
    # eigh sorts ascending: the leading vectors are the last columns.
    return eigvecs[:, ::-1][:, :rank]
