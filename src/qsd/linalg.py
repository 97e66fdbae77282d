"""Dense complex Hermitian kernel: stacks of square matrices, Hermitian
parts, products of thin factors, polar factors, pivoted Cholesky factors,
PSD rank, trace norm, and the package's one route to LAPACK.

All operations are pure functions on numpy complex128 arrays. Dimensions in
this problem family are tiny (a few hundred at most), so everything goes
through full dense decompositions. The rank cut is relative to the largest
eigenvalue, which keeps it meaningful for trace-normalized operators
regardless of prior scaling.

Every LAPACK decomposition in the package goes through four entry points here:
:func:`eigh` (Hermitian eigendecomposition, lower triangle), :func:`eigvalsh`
(its eigenvalues only), :func:`svd` (the thin SVD) and :func:`solve` (a
square system with one right-hand side), each over a stack of complex
matrices. Each calls the gufunc that the ``np.linalg`` function of that name
calls, with the complex128 signature and in the same floating-point error
mode, so its results are that function's bit for bit and a LAPACK failure
still raises ``np.linalg.LinAlgError``. What it skips is ``np.linalg``'s
per-call dispatch: the array coercion, the common-type search, the result
casts and the named tuple, a fifth to a quarter of the time of an SVD of a
20 x 5 matrix. Callers write ``linalg.svd(...)``, so an entry point, an
attribute of this module, is the one place to count or wrap its calls.

The error mode is numpy's own error-state object, which
``numpy._core._multiarray_umath._make_extobj`` makes. ``np.errstate`` makes
a new one on every call it wraps, 0.6 us of a call where setting one made
in advance takes 0.3 us, and a dependent solve makes about 40 such calls.
So each entry point makes its mode once, at import, and a call sets it on
``numpy._core._ufunc_config._extobj_contextvar`` and resets it in a
``finally``, as ``np.errstate`` does. The caller's error state is the same
after a call, or after a ``LinAlgError``, as before it, and does not change
what the call raises. A mode made once keeps the ufunc buffer size in force
at import rather than the caller's; the gufuncs' results do not depend on
it. numpy 1.x names its gufuncs and these two private names otherwise, and
a numpy that lacks any of the six names is treated alike: there the four
entry points are the public ``np.linalg`` functions, chosen once at import.

:func:`polar_factor`, the solver's one normalization, takes one of two
routes by the number n of columns of its row. Below ``_N_GRAM`` = 32 it is
``u @ vh`` of the thin SVD. From 32 on it is the Gram route, an ``eigh`` of
the n x n matrix A* A and one Newton-Schulz step, which costs less; the
least-squares start passes rho_bar's ``eigh``, which the ensemble has
taken already, in place of that of A* A. The
step is what makes the route safe: an ``eigh`` alone leaves the columns
off orthonormal by eps times the condition number of A* A, which once left
a least-squares measurement 1.7e-8 short of the identity, and the step
squares that defect. Rows whose A* A is conditioned past 1 / ``_GUARD`` =
1e6 keep the SVD, so that the square stays at rounding level.

:func:`pivoted_cholesky` is plain numpy that calls no LAPACK routine. From
``_N_CHOLESKY`` = 64 columns on, the ensemble forms the states' thin
factors with it (:attr:`qsd.ensemble.Ensemble._weighted_factors`), so that
no solve takes the states' eigenvectors there.
"""

from __future__ import annotations

import numpy as np

# Eigenvalues of a PSD matrix below this fraction of the largest count as
# zero for its rank. This is the package's one rank rule.
PSD_RANK_REL_TOL = 1e-10

# polar_factor takes the Gram route from this many columns on, and there
# only while the smallest eigenvalue of A* A exceeds _GUARD times the largest
_N_GRAM = 32
_GUARD = 1e-6
# from this many columns on the ensemble takes the states' eigenvalues only,
# and their thin factors from pivoted_cholesky
_N_CHOLESKY = 64
_EPS = float(np.finfo(float).eps)


try:
    from numpy._core._multiarray_umath import _make_extobj
    from numpy._core._ufunc_config import _extobj_contextvar
    from numpy.linalg._umath_linalg import eigh_lo, eigvalsh_lo, solve1, svd_s
except ImportError:  # numpy 1.x names its gufuncs and error state otherwise
    eigh, eigvalsh, solve = np.linalg.eigh, np.linalg.eigvalsh, np.linalg.solve

    def svd(a):
        return np.linalg.svd(a, full_matrices=False)

else:

    def _linalg_error_mode(message: str):
        """The floating-point error mode that ``np.linalg`` runs a gufunc in:
        LAPACK reports a failure as an invalid operation, which then raises
        ``np.linalg.LinAlgError(message)``, and the other flags are ignored."""

        def fail(err, flag):
            raise np.linalg.LinAlgError(message)

        return _make_extobj(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")

    _EIG_MODE = _linalg_error_mode("Eigenvalues did not converge")
    _SVD_MODE = _linalg_error_mode("SVD did not converge")
    _SOLVE_MODE = _linalg_error_mode("Singular matrix")

    def eigh(a):
        """Ascending eigenvalues and eigenvectors of each Hermitian matrix in
        ``a``, read from its lower triangle."""
        token = _extobj_contextvar.set(_EIG_MODE)
        try:
            return eigh_lo(a, signature="D->dD")
        finally:
            _extobj_contextvar.reset(token)

    def eigvalsh(a):
        """Ascending eigenvalues of each Hermitian matrix in ``a``, read from
        its lower triangle."""
        token = _extobj_contextvar.set(_EIG_MODE)
        try:
            return eigvalsh_lo(a, signature="D->d")
        finally:
            _extobj_contextvar.reset(token)

    def svd(a):
        """Thin SVD ``(u, s, vh)`` of each matrix in ``a``."""
        token = _extobj_contextvar.set(_SVD_MODE)
        try:
            return svd_s(a, signature="D->DdD")
        finally:
            _extobj_contextvar.reset(token)

    def solve(a, b):
        """The x with ``a x = b`` for a square ``a`` and a vector ``b``."""
        token = _extobj_contextvar.set(_SOLVE_MODE)
        try:
            return solve1(a, b, signature="DD->D")
        finally:
            _extobj_contextvar.reset(token)


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
    """Copy a non-empty sequence of finite square matrices of one shape into
    a new read-only complex128 array of shape (m, n, n), with n >= 1.

    Raises ``ValueError`` when the shapes differ or are not square, there is
    no matrix, the matrices are 0 x 0 or an entry is NaN or infinite.
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
        raise ValueError(f"expected square matrices of one shape, got {shapes}")
    if not stack.shape[1]:
        raise ValueError("expected matrices of at least 1 x 1, got 0 x 0")
    if not np.logical_and.reduce(np.isfinite(stack), axis=None):
        raise ValueError("expected finite matrices, got a NaN or infinite entry")
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


def polar_factor(a, gram=None) -> np.ndarray:
    """The unitary polar factor U V* of the (m r, n) row A = U s V* of an
    (m, r, n) stack, in the stack's shape; for a matrix, of the matrix.

    For A of full column rank it is ``A (A* A)^{-1/2}``, and its columns are
    orthonormal at rounding level however ill-conditioned A* A is. Below
    ``_N_GRAM`` columns it is ``u @ vh`` from the thin :func:`svd` of A.
    From ``_N_GRAM`` columns on it takes the Gram route: the eigenvalues w
    and eigenvectors V of the n x n matrix A* A = V diag(w) V*,
    Q = A V diag(w^{-1/2}) V*, and one Newton-Schulz step
    Q <- Q (3 I - Q* Q) / 2 (Higham, "Functions of Matrices", SIAM 2008,
    ch. 8). ``gram``, if given, is that ``(w, V)``, ascending, of a matrix
    close enough to A* A (see :func:`polar_excess`), and the route takes no
    ``eigh`` of its own. With one BLAS thread, the route costs no
    more than the SVD on every row measured from n = 28 up, m r = n to 2 n:
    11% less at n = 32 and 12% at n = 128 on square rows, 35% and 42% less
    on rows of 2 n. At n = 24 it costs 19% more on square rows.

    The ``eigh`` has a backward error relative to the largest eigenvalue, so
    Q* Q misses I by about eps times ``cond(A* A)``, by up to 13.5 times
    that on the 617 Gram-route rows of 120 ``li_ladder`` and 3 mid-size
    dependent solves. The step maps that defect D = Q* Q - I to
    (D^3 - 3 D^2)/4, so the result misses I by rounding plus about D^2. The
    route keeps the SVD, with no ``eigh`` of A* A, where the smallest
    eigenvalue w[0] is not above ``_GUARD`` times the largest; above it, |D|
    is at most (m r + n) eps / ``_GUARD``, 5.7e-8 at m r = n = 128, and D^2
    3.2e-15 (:func:`polar_excess`). On those rows 4 of the 617 fell back to
    the SVD, and none would have at a ``_GUARD`` of 1e-8.
    """
    b = a.reshape(-1, a.shape[-1])
    n = b.shape[-1]
    if n >= _N_GRAM:
        w, v = eigh(b.conj().T @ b) if gram is None else gram
        if w[0] > _GUARD * w[-1]:
            q = b @ ((v * w**-0.5) @ v.conj().T)
            step = q.conj().T @ q
            step *= -0.5
            step.flat[:: n + 1] += 1.5
            return (q @ step).reshape(a.shape)
    u, _, vh = svd(b)
    return (u @ vh).reshape(a.shape)


def polar_excess(rows: int, n: int, states: int = 0) -> float:
    """A bound on how much further than the SVD's own rounding, about
    ``(rows + n) eps``, the columns of :func:`polar_factor`'s result for a
    (rows, n) row may be from orthonormal: max|Q* Q - I| is at most
    ``(rows + n) eps`` plus this. With ``states`` = m it also bounds the
    least-squares start of m states, whose Gram decomposition is rho_bar's.

    It is 0 below ``_N_GRAM`` columns. On the Gram route, Q from the
    ``eigh`` has Q* Q = I + D with |D| at most ``(rows + n) eps / _GUARD``:
    the rounding of A* A and of its ``eigh`` is at most that many eps of its
    largest eigenvalue, and the guard keeps its smallest above ``_GUARD``
    times the largest. The Newton-Schulz step leaves ``(D^3 - 3 D^2)/4``,
    at most |D|^2, and its own products round as the SVD's do: Q* Q sums
    ``rows`` products and Q (3 I - Q* Q)/2 sums n.

    The start's row is A = F*, the adjoint thin factors of the weighted
    states, and its Gram decomposition is rho_bar's (:func:`qsd.lsm._lsm_factors`),
    so D = M^{-1/2} (F F* - M) M^{-1/2} with M = rho_bar, and |D| is at most
    |F F* - M| / w_min. Each F_i F_i* misses the weighted state G_i by what
    its factor leaves out and by rounding
    (:attr:`qsd.ensemble.Ensemble._weighted_factors`):

    - below ``_N_CHOLESKY`` columns, and where the Cholesky's check fails,
      the factor drops eigenvalues of G_i, each below
      ``PSD_RANK_REL_TOL w_min``. The state's ``eigh`` rounds by up to n
      eps of ``|G_i|``, which is at most rho_bar's largest eigenvalue w_max,
      since rho_bar >= G_i; the start takes rho_bar's decomposition only
      where every dropped negative eigenvalue is above ``-n eps w_max`` too,
      so the rounding comes to at most ``2 n eps w_max``;
    - on the Cholesky route (:func:`pivoted_cholesky`) the factor leaves the
      Schur complement of its pivot block, whose norm is at most the
      diagonal it leaves, which the route checks against the
      ``n PSD_RANK_REL_TOL w_min`` that the dropped eigenvalues meet. The
      Cholesky of width w_i rounds each entry (j, l) by at most
      ``(w_i + 1) eps sqrt(G_jj G_ll)`` (Higham, 1990), so by at most
      ``(w_i + 1) eps Tr G_i`` in norm, and the traces sum to Tr rho_bar =
      1 <= n w_max. A negative eigenvalue adds ``n eps w_max`` as above.

    So over the m states F F* misses M by at most
    ``m n PSD_RANK_REL_TOL w_min`` and rounding of ``2 m n eps w_max`` below
    ``_N_CHOLESKY`` columns, ``(2 m + r + 1) n eps w_max`` from it on, r =
    rows / m the widest factor, which bounds either route. With ``w_min >
    _GUARD w_max`` on the Gram route, |D| gains that rounding over
    ``_GUARD`` plus ``m n PSD_RANK_REL_TOL``. At m = 4 and rows = n = 128,
    r = 32, that is 1.2e-6 and 5.1e-8, and the square of the whole is
    1.6e-12; at rows = n = 32 the square is 7.0e-15.
    """
    if n < _N_GRAM:
        return 0.0
    start = 2 * states * n
    if states and n >= _N_CHOLESKY:
        start += (rows // states + 1) * n
    return ((rows + n + start) * _EPS / _GUARD + states * n * PSD_RANK_REL_TOL) ** 2


def pivoted_cholesky(a, widths, bounds):
    """Adjoint thin factors of the Hermitian PSD matrices of an (m, n, n)
    stack ``a`` from a pivoted Cholesky run ``widths[i]`` steps on matrix i
    (Higham, "Analysis of the Cholesky decomposition of a semi-definite
    matrix", 1990): the (m, r, n) stack of the F_i*, r the largest width,
    whose rows past a matrix's width are zero. None where a pivot is not
    positive, or where the diagonal that matrix i leaves sums, in absolute
    value, past ``bounds[i]``.

    Step k pivots on the largest diagonal entry d_p of the remainder
    a_i - F_i F_i*, and its row k of F_i* is row p of the remainder over
    sqrt(d_p), read off a_i and the rows so far, and zero at the earlier
    pivots, where the remainder is zero in exact arithmetic. The remainder
    left is the Schur complement of the pivot block, PSD for a PSD a_i, so
    its norm is at most its trace, the diagonal left. k steps cost O(k^2 n)
    per matrix, where an eigendecomposition costs O(n^3). The matrices are
    taken widest first, so that those still being factored at step k are
    the first ones of the stack.
    """
    m, n, _ = a.shape
    order = np.argsort(-widths, kind="stable")
    sorted_widths = widths[order]
    fh = np.zeros((m, int(sorted_widths[0]), n), dtype=np.complex128)
    d = np.diagonal(a, axis1=1, axis2=2).real[order]
    # 0 at the pivots so far, 1 elsewhere
    unpivoted = np.ones((m, n))
    states = np.arange(m)
    live = m
    for k in range(fh.shape[1]):
        while sorted_widths[live - 1] <= k:
            live -= 1
        s = states[:live]
        p = np.argmax(d[:live], axis=1)
        pivot = d[s, p]
        if not np.minimum.reduce(pivot) > 0.0:
            return None
        root = np.sqrt(pivot)
        row = a[order[:live], p] - (np.conj(fh[s, :k, p])[:, None, :] @ fh[:live, :k])[:, 0]
        row *= unpivoted[:live] / root[:, None]
        row[s, p] = root
        fh[:live, k] = row
        d[:live] -= (row * row.conj()).real
        d[s, p] = 0.0
        unpivoted[s, p] = 0.0
    if not np.logical_and.reduce(np.add.reduce(np.abs(d), axis=1) <= bounds[order]):
        return None
    return fh[np.argsort(order)]


def spectrum_rank(values):
    """Number of positive eigenvalues at or above ``PSD_RANK_REL_TOL`` times
    the largest, for ascending eigenvalues of shape (..., n).

    Requiring positive values keeps the rank of a subnormal matrix, whose cut
    underflows to zero, from counting its zero eigenvalues. Values of shape
    (n,) give an int, a stack an integer array.
    """
    w = np.asarray(values)
    ranks = np.add.reduce((w >= PSD_RANK_REL_TOL * w[..., -1:]) & (w > 0.0), axis=-1, dtype=np.intp)
    return int(ranks) if w.ndim == 1 else ranks


def psd_rank(m):
    """Rank of a PSD matrix, or of each in a stack (..., n, n): the
    :func:`spectrum_rank` of its Hermitian part.

    Only positive eigenvalues count, so a Hermitian matrix that is not PSD
    gets the rank of its positive part.
    """
    return spectrum_rank(eigvalsh(hermitian_part(m)))


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of the Hermitian part of a square matrix."""
    return float(np.abs(eigvalsh(hermitian_part(as_matrix(m)))).sum())
