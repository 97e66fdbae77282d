"""Minimum-error measurement optimization.

The primal problem maximizes the probability of correct detection
``sum_i p_i Tr(rho_i Pi_i)`` over POVMs. Its dual minimizes ``Tr(X)`` over
Hermitian X dominating every weighted state ``p_i rho_i``; a measurement is
globally optimal if and only if some feasible X is complementary-slack with
it, i.e. ``(X - p_i rho_i) Pi_i = 0`` for every i. That certificate, not any
particular algorithm, is the contract here.

The default solver is a completeness-preserving fixed-point ascent on the
measurement operators: with G_i = p_i rho_i, form Lambda = sum_j G_j Pi_j G_j
and update Pi_i <- Lambda^{-1/2} G_i Pi_i G_i Lambda^{-1/2}. The update keeps
the operators PSD and summing to the identity by construction, and its fixed
points satisfy the slackness conditions. Each iterate carries the
certificate built from X = herm(sum_j G_j Pi_j), and iteration stops once it
passes feasibility and slackness at the requested tolerance.

The update never raises the rank of Pi_i above that of G_i, so the loop
carries each operator as a thin factor, Pi_i = K_i K_i* with K_i of shape
(n, r) and r the widest factor, starting from the least-squares factors of
:func:`qsd.lsm._lsm_factors`. With W_i = G_i K_i, an iteration is
X = herm(sum_i W_i K_i*), the slackness residuals of (X K_i - W_i) K_i*
against the true G_i, and K_i <- Lambda^{-1/2} W_i with Lambda =
sum_i W_i W_i*, which is B_i Pi_i B_i* with B_i = Lambda^{-1/2} G_i written in
factors. Lambda^{-1/2} W is the unitary polar factor U V* of the block row
W = [W_1 ... W_m] = U s V*, and that is the update, the same
:func:`qsd.linalg.polar_factor` of [F_1 ... F_m] that makes the start, where
from n = 32 on rho_bar's eigendecomposition, taken once by
:attr:`qsd.ensemble.Ensemble.span`, stands in for that of F F*: U is
square, so sum_i K_i K_i* = U V* V U* = I for any W, and every iterate, the
start included, is a POVM at rounding level however ill-conditioned Lambda
or rho_bar is. U is square because the kept factor columns span the space,
so m r >= n: otherwise some unit y would be orthogonal to all of them, and
since every eigenvalue the factors drop has p_i w < 1e-10 w_min (w_min the
smallest eigenvalue of rho_bar), y* rho_bar y < m 1e-10 w_min < w_min.
W = 0 is the only input with no unique polar factor, and U V* is a POVM even
there; no valid ensemble reaches it in exact arithmetic, since each W_i is
nonzero at the start and the next G_i K_i = G_i M W_i with M = Lambda^{-1/2}
positive definite is zero only if W_i* M W_i is. K_i keeps its r columns, so a
projective Pi_i keeps its null space, and every product is thin: for linearly
independent states, whose ranks sum to n, an iteration costs a few n x n
products and one n x n polar factor, an SVD below n = 32 and from there an
``eigh`` of the n x n Gram matrix W* W with one Newton-Schulz step
(:func:`qsd.linalg.polar_factor`), rather than a few stacks of m products.
Pi_i = herm(K_i K_i*) is formed only for the returned iterate.

The plain map K <- T(K) = U V* converges sublinearly on linearly dependent
ensembles, so after PLAIN_STEPS plain steps the loop takes a type-II
Anderson step (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) of depth DEPTH
on the factors on every other step, polar-normalized into a POVM and taken
only if it does not lower P_d. The plain steps between extend the mixing
history without clearing it, as in the periodic Pulay method (Banerjee,
Suryanarayana & Pask, Chem. Phys. Lett. 647, 2016). A mixed step costs a
second polar factor and a Gram solve, about as much again as a plain step, and
mixing on every other step keeps the acceleration: on the first 600
dependent_small draws at seed 404 it takes 15% fewer SVDs, in 1% fewer
iterations, than mixing on every step at depth 5. The linearly
independent ensembles measured converge within the plain steps, in 3 to 7,
and a solve that stops there is the plain loop's bit for bit.

The weighted states are held as a stacked ``(m, n, n)`` array and the
factors, from the start to the returned operators, as the ``(m, r, n)``
stack of the K_i*, whose ``(m r, n)`` reshape is the adjoint of the block
row the polar step acts on; :func:`_iterates` gives the loop in that layout
and judges nothing. The certificate is formed on demand. Every iterate sums
to the identity, so its slackness residuals K_i (K_i* X - W_i*) sum to
X - x = -(x - x*)/2, with x = K W* the product the step forms anyway; when
max|x - x*| exceeds 2 m tol by more than a rounding allowance, some residual
exceeds tol and the iterate is skipped without forming X = herm(x) or its
residuals. On the first 600 dependent_small draws at seed 404 that rules
out 88% of the iterates whose slackness fails (8,646 of 9,834). The
residuals are formed on the other iterates, and the feasibility margins,
one batched eigenvalue decomposition, only on iterates whose slackness
passes, since only there can they decide convergence. Both are computed by
the same routines that :func:`certify` uses, and the solver returns the
chosen iterate's own certificate, bit for bit what checking the full
certificate on every iterate returns. A solve that exhausts its budget
returns its last iterate, whose P_d is the highest the solve reached: a
mixed step is taken only if it does not lower P_d, and no plain step
measured has lowered it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count, islice
from numbers import Integral, Real

import numpy as np

from . import linalg
from .ensemble import Ensemble, require_valid
from .lsm import Povm, _lsm_factors, require_match

# Anderson mixing of the fixed point: the first PLAIN_STEPS steps are plain,
# then steps PLAIN_STEPS, PLAIN_STEPS + _MIX_PERIOD, ... are mixed, each
# combining up to the last DEPTH + 1 iterates, and the plain steps between
# extend the history. It opens at step _HISTORY_FROM, so the first mixed step
# combines 5 differences.
DEPTH = 6
PLAIN_STEPS = 8
_MIX_PERIOD = 2
_HISTORY_FROM = 3
# float64 rounding unit, for the slackness screen's allowance
_EPS = float(np.finfo(float).eps)


def _check_tol(tol) -> float:
    """``tol`` if it is a real number, not a bool, finite and positive, and
    otherwise ``ValueError``: a tolerance of 0, inf, nan or ``True`` (read as
    1) proves nothing."""
    # written so that nan fails
    if isinstance(tol, bool) or not isinstance(tol, Real) or not 0.0 < tol < np.inf:
        raise ValueError(f"need a finite real tol > 0, got {tol!r}")
    return tol


@dataclass(frozen=True)
class Certificate:
    """Dual operator with its feasibility margins and slackness residuals.

    ``feas_margins[i]`` is the smallest eigenvalue of ``x_hat - p_i rho_i``
    (nonnegative means the dual constraint holds); ``slack_residuals[i]`` is
    the largest entry magnitude of ``(x_hat - p_i rho_i) Pi_i``. A feasible
    and slack certificate proves the measurement globally optimal, provided
    its operators are PSD and sum to the identity (see
    :func:`qsd.vnm.check_povm`); the certificate does not check that.

    ``dual_value`` is ``Tr(x_hat)``. ``gap`` is the certified gap
    ``Tr(x_hat) + n t - P_d`` with ``t = max(0, -min feas_margins)``: since
    ``x_hat + t I`` is dual feasible, no measurement beats the detection
    probability ``P_d`` of the certified one by more than ``gap``, whatever
    Hermitian ``x_hat`` is.
    """

    dual_value: float
    gap: float
    feas_margins: tuple[float, ...]
    slack_residuals: tuple[float, ...]
    x_hat: np.ndarray

    # written so that a NaN margin or residual fails, wherever it stands; a
    # tolerance that proves nothing raises ValueError, as in solve_optimal
    def feasible_at(self, tol: float) -> bool:
        tol = _check_tol(tol)
        return all(m >= -tol for m in self.feas_margins)

    def slack_at(self, tol: float) -> bool:
        tol = _check_tol(tol)
        return all(r <= tol for r in self.slack_residuals)

    def optimal_at(self, tol: float) -> bool:
        return self.feasible_at(tol) and self.slack_at(tol)


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    primal_value: float
    converged: bool


def prob_correct(e: Ensemble, p: Povm) -> float:
    """Probability of correct detection: sum_i p_i Tr(rho_i Pi_i)."""
    require_match(e, p)
    return _trace_sum(e.weighted_states, p.operators)


def helstrom_binary(e: Ensemble) -> float:
    """Closed-form optimum for two states: (1 + ||p1 rho1 - p2 rho2||_1) / 2.

    Independent oracle for cross-checking the iterative solver; never used
    inside it. Other state counts raise ``ValueError``.
    """
    if e.num_states != 2:
        raise ValueError(f"need exactly 2 states, got {e.num_states}")
    (p1, p2), (rho1, rho2) = e.priors, e.rhos
    delta = p1 * rho1 - p2 * rho2
    return 0.5 * (1.0 + linalg.trace_norm(delta))


def certify(e: Ensemble, p: Povm, x_hat, tol: float = 1e-7) -> Certificate:
    """Evaluate the optimality certificate of a candidate dual operator.

    Computes all feasibility margins and slackness residuals without mutating
    the inputs. ``tol`` is not used: the certificate carries raw margins and
    residuals, and callers judge them with ``optimal_at``. The parameter
    stays because callers pass it positionally, ``perfbench/workloads.py``
    among them.

    A passing certificate proves ``p`` optimal only if ``p`` is a POVM. That
    is not checked here, so a broken candidate can still be inspected;
    :func:`qsd.vnm.check_povm` checks it, and ``qsd certify`` does both.
    An ``x_hat`` of the wrong shape, or with an entry that is not finite,
    raises ``ValueError``.
    """
    x_hat = linalg.as_matrix(x_hat)
    if x_hat.shape != (e.dim, e.dim):
        raise ValueError(
            f"dual operator has shape {x_hat.shape}, expected ({e.dim}, {e.dim})"
        )
    if not np.isfinite(x_hat).all():
        raise ValueError("dual operator has entries that are not finite")
    x_hat = linalg.hermitian_part(x_hat)
    diff = x_hat - e.weighted_states
    return _certificate(x_hat, prob_correct(e, p), _margins(diff), _slacks(diff, p.operators))


def _certificate(x_hat, primal: float, margins, slacks) -> Certificate:
    """The certificate of Hermitian ``x_hat`` for a measurement of detection
    probability ``primal``, from its margins and residuals."""
    dual = float(x_hat.trace().real)
    shift = max(0.0, -float(np.minimum.reduce(margins)))
    return Certificate(
        x_hat=x_hat,
        dual_value=dual,
        gap=dual + len(x_hat) * shift - primal,
        feas_margins=tuple(margins.tolist()),
        slack_residuals=tuple(slacks.tolist()),
    )


def _trace_sum(g: np.ndarray, ops: np.ndarray) -> float:
    """sum_i Tr(G_i Pi_i) over two (m, n, n) stacks."""
    return float(np.einsum("ijk,ikj->", g, ops).real)


def _margins(diff):
    """Smallest eigenvalue of each x_hat - G_i, from the stack ``diff = x_hat - G``."""
    return linalg.eigvalsh(diff)[:, 0]


def _slacks(a, b):
    """Largest entry magnitude of each product a_i b_i: of (x_hat - G_i) Pi_i
    for ``a = x_hat - G`` and the operators ``b``, or of its adjoint
    K_i (K_i* x_hat - K_i* G_i) for the factors ``a`` = K and ``b`` = K* X - W*."""
    return np.maximum.reduce(np.abs(a @ b), axis=(1, 2))


def _mixing_weights(d_f: np.ndarray, f: np.ndarray):
    """The gamma minimizing |f - d_f^T gamma| for the (d, N) rows ``d_f``, from
    the d x d Gram system (d_f* d_f^T) gamma = d_f* f; None if that system is
    singular or its solution not finite."""
    d_f_h = d_f.conj()
    try:
        gamma = linalg.solve(d_f_h @ d_f.T, d_f_h @ f)
    except np.linalg.LinAlgError:
        return None
    return gamma if np.logical_and.reduce(np.isfinite(gamma)) else None


def _iterates(g: np.ndarray, kh: np.ndarray):
    """Fixed-point ascent from the factors ``kh``, the (m, r, n) stack of the
    K_i* with Pi_i = K_i K_i*: yield every iterate, ``kh`` first, as
    (factors, W*, x) in that layout, with W* = (G K)* and x = K W*, the two
    products the step forms anyway. Never stops on its own and judges no
    iterate; :func:`_slackness` gives an iterate's dual operator and
    slackness residuals. A yielded array is never written afterwards, so a
    consumer may keep it without a copy.

    The (m r, n) reshape of the stack is the adjoint K* = [K_1 ... K_m]* of
    the (n, m r) block row that the polar step acts on, and W* is the batched
    product K_i* G_i, ``kh @ g``. So x = sum_i Pi_i G_i is one product over
    the rows, and its trace is the iterate's P_d. The plain step takes the
    polar factor of W* as it is: K* <- T(K)* = polar_factor(W*). LAPACK
    takes that contiguous array as a tall matrix, which it decomposes faster
    than the wide W. From step PLAIN_STEPS on, every _MIX_PERIOD-th step is
    type-II Anderson mixing of depth DEPTH on vec(K*) with the residual
    F = T(K)* - K*: the point T(K_k)* - sum_j gamma_j dT_j, over the
    differences dT_j and dF_j of T* and F between consecutive iterates among
    the last DEPTH + 1, with gamma the least-squares solution of
    dF gamma = F(K_k). The last DEPTH differences of each are kept, one of
    each appended per step, plain or mixed, and gamma solves the normal
    equations (dF* dF) gamma = dF* F(K_k), a Gram system of at most DEPTH
    unknowns (:func:`_mixing_weights`). Mixing factors rather than operators
    keeps a POVM: the mixed K_i K_i* are PSD, and the polar factor of the
    mixed factors makes them sum to the identity. The candidate is taken
    only if its P_d = sum_i Tr(K_i* G_i K_i) is at least the current
    iterate's Tr x, which is bit for bit Tr herm(x), and its W* is the next
    iterate's. Otherwise, or if the Gram system is singular or gamma is not
    finite, the step is plain and the history is cleared; the plain steps
    between mixed ones keep it. T(K Q) = T(K) Q for block-diagonal unitary
    Q = diag(Q_i), so the iterates share one gauge and their factors can be
    combined.
    """
    n = kh.shape[-1]
    wh = kh @ g
    # differences of T* and F between consecutive iterates, flattened
    diff_t, diff_f = deque(maxlen=DEPTH), deque(maxlen=DEPTH)
    prev = None
    for step in count():
        x = kh.conj().reshape(-1, n).T @ wh.reshape(-1, n)
        yield kh, wh, x

        t = linalg.polar_factor(wh).ravel()
        # History is kept only from step _HISTORY_FROM, so solves that stop
        # within the plain steps, every linearly independent one measured,
        # hold little of it. Kept from the start, it gives the same outputs
        # but raised the tracemalloc peak of an n = 128 li_ladder solve from
        # 3,331 to 4,612 KiB, and li_ladder's peak RSS by 1.5 MB.
        if step >= _HISTORY_FROM:
            f = t - kh.ravel()
            if prev is not None:
                diff_t.append(t - prev[0])
                diff_f.append(f - prev[1])
            prev = t, f
        if step >= PLAIN_STEPS and not (step - PLAIN_STEPS) % _MIX_PERIOD and diff_f:
            gamma = _mixing_weights(np.array(diff_f), f)
            if gamma is not None:
                mixed = linalg.polar_factor((t - gamma @ np.array(diff_t)).reshape(kh.shape))
                w_mixed = mixed @ g
                if np.vdot(mixed, w_mixed).real >= x.trace().real:
                    kh, wh = mixed, w_mixed
                    continue
            diff_t.clear()
            diff_f.clear()
            prev = None
        kh = t.reshape(kh.shape)
        wh = kh @ g


def _slackness(kh, wh, x):
    """The dual operator x_hat = herm(x) of the iterate (kh, wh, x) that
    :func:`_iterates` yields, and its slackness residuals: those of
    K_i (K_i* x_hat - W_i*), the adjoints of (x_hat K_i - W_i) K_i*."""
    x_hat = linalg.hermitian_part(x)
    # K* X is taken on the rows: the batched product rounds differently
    kx = (kh.reshape(-1, x.shape[0]) @ x_hat).reshape(kh.shape)
    return x_hat, _slacks(kh.conj().swapaxes(1, 2), kx - wh)


def _allowance(kh) -> float:
    """Rounding allowance of the slackness screen for factors ``kh`` of
    shape (m, r, n): ``(4 m + 1) n eps``, plus
    :func:`qsd.linalg.polar_excess` of the least-squares start on the Gram
    route of the polar step.

    The residuals R_i = K_i (K_i* X - W_i*) of X = herm(x) sum to
    K K* X - x = X - x + E X, with E = K K* - I, and X - x = -(x - x*)/2.
    So, exactly, max|x - x*|/2 <= m max_i max|R_i| + max|E X|. Every factor
    is at most 1 in norm: K has orthonormal rows, and the weighted states
    are PSD with traces summing to 1, so |W| <= 1 and |X| <= 1. A sum of N
    products of such entries is off by about N eps at most. So max|E X| is
    at most |E|; x sums m r products; and each of the m computed residuals
    is off by (n + r) eps, n for K_i* X and r for K_i times it.

    K* is :func:`qsd.linalg.polar_factor` of an (m r, n) row. From the SVD,
    whose factors are orthonormal to within their sizes times eps, |E| is
    about (m r + n) eps, and the total is (3 m r + m n + n) eps <=
    (4 m + 1) n eps, since r <= n. The Gram route's Newton-Schulz step
    rounds the same (m r + n) eps, and leaves the square of the defect of
    the ``eigh`` it corrects, which ``polar_excess`` bounds. The start's
    defect is the larger: its Gram decomposition is rho_bar's, which misses
    F F* by the eigenvalues the factors drop, up to m n 1e-10 relative to
    rho_bar's smallest, and by the rounding of the states' ``eigh``. Every
    iterate gets the start's bound, 1.1e-13 at m r = n = 128 and m = 4,
    where (4 m + 1) n eps is 4.8e-13.

    Measured on every iterate of the solves of the first 600
    dependent_small and 60 li_ladder draws at seeds 404 and 2718: |E| is at
    most 2.2 (m r + n) eps on the SVD route and 0.34 (m r + n) eps on the
    Gram route, well within the allowance, and max|x - x*|/2 never exceeds
    m max_i max|R_i| as computed, so the bound held there with none of the
    allowance spent.
    """
    m, r, n = kh.shape
    return (4 * m + 1) * n * _EPS + linalg.polar_excess(m * r, n, m)


def solve_optimal(
    e: Ensemble, tol: float = 1e-8, max_iter: int = 10000
) -> tuple[Povm, Certificate, SolveDiagnostics]:
    """Solve for the measurement maximizing the detection probability.

    Starts from the least-squares measurement (already optimal for symmetric
    ensembles, so a fixed point there) and runs the fixed-point ascent until
    the certificate passes at ``tol`` or the iteration budget runs out. On
    exhaustion the last iterate, which has the highest P_d the solve reached,
    is returned with ``converged=False`` rather than raising; hard instances
    are diagnosed, not aborted. Either way the certificate returned is the
    returned iterate's own. An ensemble that fails validation raises as in
    :func:`qsd.lsm.compute_lsm`, and ``ValueError`` is raised, before any
    work, unless ``tol`` is a real number, not a bool, finite and positive,
    and ``max_iter`` is an integer, not a bool, and not negative.

    Each iterate is first screened on the product x = K W* that the step
    forms anyway: since every iterate sums to the identity, its slackness
    residuals sum to -(x - x*)/2, so max|x - x*| > 2 (m tol + allowance)
    (see :func:`_allowance`) proves that some residual exceeds ``tol``, and
    the iterate is skipped without forming X = herm(x), its residuals or its
    margins. The iterates the screen leaves open get the residuals of
    :func:`_slackness`, and the margins only where slackness passes. So the
    solve lands on the iterate, and returns the certificate, that checking
    the full certificate on every iterate would.
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, Integral) or max_iter < 0:
        raise ValueError(f"need an integer max_iter >= 0, got {max_iter!r}")
    tol = _check_tol(tol)
    require_valid(e)
    g = e.weighted_states
    kh = _lsm_factors(e)
    # max|x - x*| above this proves that some slackness residual exceeds tol
    screen = 2.0 * (len(kh) * tol + _allowance(kh))
    iterates = islice(_iterates(g, kh), max_iter + 1)
    for iteration, (kh, wh, x) in enumerate(iterates):
        if np.maximum.reduce(np.abs(x - x.conj().T), axis=None) > screen:
            continue
        x_hat, slacks = _slackness(kh, wh, x)
        # margins can make an iterate converge only where slackness passes
        if float(np.maximum.reduce(slacks)) <= tol:
            margins = _margins(x_hat - g)
            if float(np.minimum.reduce(margins)) >= -tol:
                return _solution(g, kh, x_hat, margins, slacks, iteration, True)
    x_hat, slacks = _slackness(kh, wh, x)
    return _solution(g, kh, x_hat, _margins(x_hat - g), slacks, int(max_iter), False)


def _solution(g, kh, x_hat, margins, slacks, iterations: int, converged: bool):
    """The returned measurement, its certificate and the solve's diagnostics,
    from the factors ``kh`` of the chosen iterate."""
    ops = linalg.factor_products(kh)
    primal = _trace_sum(g, ops)
    diag = SolveDiagnostics(iterations=iterations, primal_value=primal, converged=converged)
    return Povm(ops), _certificate(x_hat, primal, margins, slacks), diag
