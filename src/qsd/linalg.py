"""Dense complex Hermitian kernel: stacks of square matrices, Hermitian
parts, products of thin factors, polar factors, PSD rank, trace norm.

All operations are pure functions on numpy complex128 arrays. Dimensions in
this problem family are tiny (a few hundred at most), so everything goes
through full dense decompositions. The rank cut is relative to the largest
eigenvalue, which keeps it meaningful for trace-normalized operators
regardless of prior scaling.
"""

from __future__ import annotations

import numpy as np

from .errors import DimMismatchError

# Eigenvalues of a PSD matrix below this fraction of the largest count as
# zero for its rank. This is the package's one rank rule.
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
    read-only complex128 array of shape (m, n, n), with n >= 1.

    Raises ``DimMismatchError`` when the shapes differ or are not square and
    ``ValueError`` when there is no matrix or the matrices are 0 x 0.
    """
    try:
        stack = np.array(mats, dtype=np.complex128)
    except ValueError:
        stack = None  # ragged; the shapes are reported below
    if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2] or not len(stack):
        ms = [np.asarray(a, dtype=np.complex128) for a in mats]
        if not ms:
            raise ValueError("expected at least one matrix")
        shapes = sorted({a.shape for a in ms})
        raise DimMismatchError(f"expected square matrices of one shape, got {shapes}")
    if not stack.shape[1]:
        raise ValueError("expected matrices of at least 1 x 1, got 0 x 0")
    stack.flags.writeable = False
    return stack


def hermitian_part(m) -> np.ndarray:
    """Return (M + M*)/2, matrix by matrix for a stack of shape (..., n, n).

    Input that is not a square matrix or a stack of them raises ``ValueError``.
    """
    m = np.asarray(m, dtype=np.complex128)
    h = np.conjugate(m.swapaxes(-1, -2), order="C")
    h += m
    h /= 2
    return h


def factor_products(kh) -> np.ndarray:
    """herm(K_i K_i*) for each K_i* in an (m, r, n) stack ``kh``: the PSD
    matrices of which the (n, r) matrices K_i are thin factors."""
    return hermitian_part(np.conj(kh).swapaxes(-1, -2) @ kh)


def polar_factor(a) -> np.ndarray:
    """The unitary polar factor U V* of the (m r, n) row A = U s V* of an
    (m, r, n) stack, in the stack's shape; for a matrix, of the matrix.

    For A of full column rank it is ``A (A* A)^{-1/2}``, and V U* U V* = I at
    rounding level however ill-conditioned A* A is.
    """
    u, _, vh = np.linalg.svd(a.reshape(-1, a.shape[-1]), full_matrices=False)
    return (u @ vh).reshape(a.shape)


def spectrum_rank(values):
    """Number of positive eigenvalues at or above ``PSD_RANK_REL_TOL`` times
    the largest, for ascending eigenvalues of shape (..., n).

    Requiring positive values keeps the rank of a subnormal matrix, whose cut
    underflows to zero, from counting its zero eigenvalues. Values of shape
    (n,) give an int, a stack an integer array.
    """
    w = np.asarray(values)
    ranks = np.count_nonzero((w >= PSD_RANK_REL_TOL * w[..., -1:]) & (w > 0.0), axis=-1)
    return int(ranks) if w.ndim == 1 else ranks


def psd_rank(m):
    """Rank of a PSD matrix, or of each in a stack (..., n, n): the
    :func:`spectrum_rank` of its Hermitian part.

    Only positive eigenvalues count, so a Hermitian matrix that is not PSD
    gets the rank of its positive part.
    """
    return spectrum_rank(np.linalg.eigvalsh(hermitian_part(m)))


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of the Hermitian part of a square matrix."""
    return float(np.abs(np.linalg.eigvalsh(hermitian_part(as_matrix(m)))).sum())
