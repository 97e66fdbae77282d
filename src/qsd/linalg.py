"""Dense complex Hermitian kernel: eigendecompositions, PSD tests, matrix
square roots, numeric rank, trace norm.

All operations are pure functions on numpy complex128 arrays. Dimensions in
this problem family are tiny (a few hundred at most), so everything goes
through full dense decompositions. Tolerances are relative to (1 + max|entry|)
or to the largest singular value, which keeps them meaningful for
trace-normalized operators regardless of prior scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    NonSquareError,
    NotHermitianError,
    NotPsdError,
    SingularMatrixError,
)

# Asymmetry above this (relative to maxabs) means corrupted input, not roundoff.
HERMITIAN_ASYMMETRY_TOL = 1e-8
# Eigenvalues in [-PSD_CLAMP_TOL*(1+maxabs), 0) are treated as roundoff zeros.
PSD_CLAMP_TOL = 1e-8
RANK_REL_TOL = 1e-10


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
    """Eigendecomposition of a Hermitian matrix.

    ``values`` are real and ascending; the columns of ``vectors`` are the
    matching orthonormal eigenvectors.
    """

    values: np.ndarray
    vectors: np.ndarray


def eig_hermitian(m) -> EigResult:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized as (M + M*)/2 before decomposition, which removes
    accumulated roundoff asymmetry deterministically. Asymmetry beyond
    ``HERMITIAN_ASYMMETRY_TOL * maxabs(M)`` raises ``NotHermitianError``.
    """
    m = as_matrix(m)
    _require_square(m)
    asym = maxabs(m - m.conj().T)
    if asym > HERMITIAN_ASYMMETRY_TOL * maxabs(m):
        raise NotHermitianError(
            f"asymmetry {asym:.3e} exceeds {HERMITIAN_ASYMMETRY_TOL:.0e} * maxabs"
        )
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return EigResult(values=w, vectors=v)


def is_psd(m, tol: float = 1e-9) -> tuple[bool, float]:
    """Test positive semidefiniteness of a Hermitian matrix.

    Returns ``(flag, min_eigenvalue)`` where the flag is true iff the smallest
    eigenvalue is at least ``-tol * (1 + maxabs(M))``.
    """
    res = eig_hermitian(m)
    min_eig = float(res.values[0])
    return min_eig >= -tol * (1 + maxabs(m)), min_eig


def sqrt_psd(m) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Small negative eigenvalues (above ``-PSD_CLAMP_TOL*(1+maxabs)``) are
    clamped to zero; anything below that raises ``NotPsdError`` since it
    signals a caller bug rather than roundoff.
    """
    m = as_matrix(m)
    res = eig_hermitian(m)
    floor = -PSD_CLAMP_TOL * (1 + maxabs(m))
    if res.values[0] < floor:
        raise NotPsdError(
            f"min eigenvalue {float(res.values[0]):.3e} below {floor:.3e}"
        )
    w = np.clip(res.values, 0.0, None)
    v = res.vectors
    return hermitian_part((v * np.sqrt(w)) @ v.conj().T)


def inv_sqrt_psd(m, rank_tol: float = 1e-10) -> np.ndarray:
    """Hermitian inverse square root of a positive definite matrix.

    Raises ``SingularMatrixError`` when the smallest eigenvalue falls below
    ``rank_tol`` times the largest, i.e. the matrix is not safely invertible.
    """
    res = eig_hermitian(m)
    w = res.values
    w_max = float(w[-1])
    if w_max <= 0.0 or float(w[0]) < rank_tol * w_max:
        raise SingularMatrixError(
            f"min eigenvalue {float(w[0]):.3e} below "
            f"{rank_tol:.1e} * {w_max:.3e}"
        )
    v = res.vectors
    return hermitian_part((v / np.sqrt(w)) @ v.conj().T)


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
    res = eig_hermitian(m)
    return float(np.abs(res.values).sum())
