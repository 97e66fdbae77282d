"""Dense complex Hermitian kernel: stacks of square matrices,
eigendecompositions, numeric rank, trace norm.

All operations are pure functions on numpy complex128 arrays. Dimensions in
this problem family are tiny (a few hundred at most), so everything goes
through full dense decompositions. Tolerances are relative to (1 + max|entry|)
or to the largest singular value, which keeps them meaningful for
trace-normalized operators regardless of prior scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatchError, NonSquareError, NotHermitianError

# Asymmetry above this (relative to maxabs) means corrupted input, not roundoff.
HERMITIAN_ASYMMETRY_TOL = 1e-8
RANK_REL_TOL = 1e-10
# Eigenvalues of a PSD matrix below this fraction of the largest count as
# zero for its rank.
PSD_RANK_REL_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex128 array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    return a


def maxabs(m) -> float:
    """Largest entry magnitude; 0 for an empty array."""
    a = np.asarray(m)
    return float(np.abs(a).max()) if a.size else 0.0


def square_stack(mats) -> np.ndarray:
    """Copy a non-empty sequence of square matrices of one shape into a new
    complex128 array of shape (m, n, n).

    Raises ``DimMismatchError`` when the shapes differ or are not square and
    ``ValueError`` when there is no matrix.
    """
    ms = [np.asarray(a, dtype=np.complex128) for a in mats]
    if not ms:
        raise ValueError("expected at least one matrix")
    shape = ms[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or any(a.shape != shape for a in ms):
        shapes = sorted({a.shape for a in ms})
        raise DimMismatchError(f"expected square matrices of one shape, got {shapes}")
    return np.stack(ms)


def _as_stack(m) -> np.ndarray:
    """Coerce to a complex128 matrix or stack of matrices, shape (..., n, k)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise ValueError(f"expected a matrix or a stack of matrices, got ndim={a.ndim}")
    return a


def _require_square(m: np.ndarray) -> None:
    if m.shape[-2] != m.shape[-1]:
        raise NonSquareError(f"matrix is {m.shape[-2]}x{m.shape[-1]}")


def hermitian_part(m, out=None) -> np.ndarray:
    """Return (M + M*)/2, matrix by matrix for a stack of shape (..., n, n),
    in ``out`` if given (complex128, same shape, not overlapping M)."""
    m = _as_stack(m)
    _require_square(m)
    h = np.conjugate(m.swapaxes(-1, -2), out=out, order="C")
    h += m
    h /= 2
    return h


@dataclass(frozen=True)
class EigResult:
    """Eigendecomposition of a Hermitian matrix, or of each in a stack.

    ``values`` are real and ascending; the columns of ``vectors`` are the
    matching orthonormal eigenvectors.
    """

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian(m) -> EigResult:
    """Eigendecomposition of a Hermitian matrix or a stack (..., n, n).

    The input is symmetrized as (M + M*)/2 before decomposition, which removes
    accumulated roundoff asymmetry deterministically. Asymmetry beyond
    ``HERMITIAN_ASYMMETRY_TOL * maxabs(M)`` in any matrix raises
    ``NotHermitianError``.
    """
    m = _as_stack(m)
    _require_square(m)
    m_h = np.conjugate(m.swapaxes(-1, -2))
    asym = np.abs(m - m_h).max(axis=(-2, -1), initial=0.0)
    scale = np.abs(m).max(axis=(-2, -1), initial=0.0)
    if np.any(asym > HERMITIAN_ASYMMETRY_TOL * scale):
        raise NotHermitianError(
            f"asymmetry {float(asym.max()):.3e} exceeds "
            f"{HERMITIAN_ASYMMETRY_TOL:.0e} * maxabs"
        )
    w, v = np.linalg.eigh((m + m_h) / 2)
    return EigResult(values=w, vectors=v)


def psd_rank(values, rank_tol: float = PSD_RANK_REL_TOL) -> int:
    """Number of eigenvalues at or above ``rank_tol`` times the largest.

    ``values`` are the ascending eigenvalues of one Hermitian matrix. A
    matrix whose largest eigenvalue is not positive has rank 0.
    """
    w_max = float(values[-1])
    if w_max <= 0.0:
        return 0
    return int(np.count_nonzero(values >= rank_tol * w_max))


def numeric_rank(m, rel_tol: float = RANK_REL_TOL):
    """Number of singular values above ``rel_tol`` times the largest one.

    The zero matrix has rank 0. A stack of shape (..., n, k) takes one SVD
    call and gives an integer array with the rank of each matrix.
    """
    a = _as_stack(m)
    s = np.linalg.svd(a, compute_uv=False)
    ranks = np.count_nonzero(s > rel_tol * s[..., :1], axis=-1)
    return int(ranks) if a.ndim == 2 else ranks


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    res = eig_hermitian(as_matrix(m))
    return float(np.abs(res.values).sum())
