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
:func:`qsd.linalg.polar_factor` of [F_1 ... F_m] that makes the start: U is
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
products and one n x n SVD rather than a few stacks of m products.
Pi_i = herm(K_i K_i*) is formed only for the returned iterate.

The plain map K <- T(K) = U V* converges sublinearly on linearly dependent
ensembles, so after PLAIN_STEPS plain steps the loop takes type-II Anderson
steps (Walker & Ni, SIAM J. Numer. Anal. 49, 2011) of depth DEPTH on the
factors, each polar-normalized into a POVM and taken only if it does not
lower P_d. The linearly independent ensembles measured converge within the
plain steps, in 3 to 7, and a solve that stops there is the plain loop's bit
for bit.

The weighted states are held as a stacked ``(m, n, n)`` array and the
factors, from the start to the returned operators, as the ``(m, r, n)``
stack of the K_i*, whose ``(m r, n)`` reshape is the adjoint of the block
row the polar step acts on; :func:`_iterates` gives the loop in that layout.
Slackness is checked on every iterate; the feasibility margins, one batched
eigenvalue decomposition, are taken only on iterates whose slackness passes,
since only there can they decide convergence. Both are computed by the same
routines that :func:`certify` uses, and the solver returns the chosen
iterate's own certificate. A solve that exhausts its budget returns its last
iterate, whose P_d is the highest the solve reached: a mixed step is taken
only if it does not lower P_d, and no plain step measured has lowered it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from . import linalg
from .ensemble import Ensemble, require_valid
from .errors import DimMismatchError, NotBinaryError
from .lsm import Povm, _lsm_factors, require_match

# Anderson mixing of the fixed point: a mixed step combines the last DEPTH + 1
# iterates, and the first PLAIN_STEPS steps are plain.
DEPTH = 5
PLAIN_STEPS = 8


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

    x_hat: np.ndarray
    dual_value: float
    gap: float
    feas_margins: tuple[float, ...]
    slack_residuals: tuple[float, ...]

    # written so that a NaN margin or residual fails, wherever it stands
    def feasible_at(self, tol: float) -> bool:
        return all(m >= -tol for m in self.feas_margins)

    def slack_at(self, tol: float) -> bool:
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
    inside it.
    """
    if e.num_states != 2:
        raise NotBinaryError(f"need exactly 2 states, got {e.num_states}")
    (p1, p2), (rho1, rho2) = e.priors, e.rhos
    delta = p1 * rho1 - p2 * rho2
    return 0.5 * (1.0 + linalg.trace_norm(delta))


def certify(e: Ensemble, p: Povm, x_hat, tol: float = 1e-7) -> Certificate:
    """Evaluate the optimality certificate of a candidate dual operator.

    Computes all feasibility margins and slackness residuals without mutating
    the inputs. ``tol`` is only a convenience for callers that immediately
    test ``optimal_at``; the certificate itself carries raw residuals.

    A passing certificate proves ``p`` optimal only if ``p`` is a POVM. That
    is not checked here, so a broken candidate can still be inspected;
    :func:`qsd.vnm.check_povm` checks it, and ``qsd certify`` does both.
    An ``x_hat`` of the wrong shape raises ``DimMismatchError``, and one with
    an entry that is not finite ``ValueError``.
    """
    x_hat = linalg.as_matrix(x_hat)
    if x_hat.shape != (e.dim, e.dim):
        raise DimMismatchError(
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
    dual = float(np.trace(x_hat).real)
    shift = max(0.0, -float(margins.min()))
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
    return np.linalg.eigvalsh(diff)[:, 0]


def _slacks(a, b):
    """Largest entry magnitude of each product a_i b_i: of (x_hat - G_i) Pi_i
    for ``a = x_hat - G`` and the operators ``b``, or of its adjoint
    K_i (K_i* x_hat - K_i* G_i) for the factors ``a`` = K and ``b`` = K* X - W*."""
    return np.abs(a @ b).max(axis=(1, 2))


def _mixing_weights(d_f: np.ndarray, f: np.ndarray):
    """The gamma minimizing |f - d_f^T gamma| for the (d, N) rows ``d_f``, from
    the d x d Gram system (d_f* d_f^T) gamma = d_f* f; None if that system is
    singular or its solution not finite."""
    d_f_h = d_f.conj()
    try:
        gamma = np.linalg.solve(d_f_h @ d_f.T, d_f_h @ f)
    except np.linalg.LinAlgError:
        return None
    return gamma if np.isfinite(gamma).all() else None


def _iterates(g: np.ndarray, kh: np.ndarray):
    """Fixed-point ascent from the factors ``kh``, the (m, r, n) stack of the
    K_i* with Pi_i = K_i K_i*: yield every iterate, ``kh`` first, as
    (factors, x_hat, slacks) in that layout. Never stops on its own; a yielded
    array is never written afterwards, so a consumer may keep it without a
    copy.

    The (m r, n) reshape of the stack is the adjoint K* = [K_1 ... K_m]* of
    the (n, m r) block row that the polar step acts on, and W* = (G K)* is
    the batched product K_i* G_i, ``kh @ g``. So x_hat = herm(K W*), the
    Hermitian part of (W K*)*, is one product over the rows, the slackness
    residuals are those of K_i (K_i* X - W_i*), the adjoints of
    (X K_i - W_i) K_i*, and the plain step takes the polar factor of W* as it
    is: K* <- T(K)* = polar_factor(W*). LAPACK takes that contiguous array as
    a tall matrix, which it decomposes faster than the wide W. After
    PLAIN_STEPS plain steps, each step is type-II Anderson mixing of depth
    DEPTH on vec(K*) with the residual F = T(K)* - K*: the point
    T(K_k)* - sum_j gamma_j dT_j, over the differences dT_j and dF_j of T*
    and F between consecutive iterates among the last DEPTH + 1, with gamma
    the least-squares solution of dF gamma = F(K_k). The last DEPTH
    differences of each are kept, one of each appended per step, and gamma
    solves the normal equations (dF* dF) gamma = dF* F(K_k), a Gram system of
    at most DEPTH unknowns (:func:`_mixing_weights`). Mixing factors rather
    than operators keeps a POVM: the mixed K_i K_i* are PSD, and the polar
    factor of the mixed factors makes them sum to the identity. The candidate
    is taken only if its P_d = sum_i Tr(K_i* G_i K_i) is at least the current
    iterate's Tr x_hat, and its W* is the next iterate's. Otherwise, or if
    the Gram system is singular or gamma is not finite, the step is plain and
    the history is cleared. T(K Q) = T(K) Q for block-diagonal unitary
    Q = diag(Q_i), so the iterates share one gauge and their factors can be
    combined.
    """
    n = kh.shape[-1]
    wh = kh @ g
    # differences of T* and F between consecutive iterates, flattened
    diff_t, diff_f = deque(maxlen=DEPTH), deque(maxlen=DEPTH)
    prev = None
    for step in count():
        k_t = kh.conj()  # the K_i^T
        x_hat = linalg.hermitian_part(k_t.reshape(-1, n).T @ wh.reshape(-1, n))
        # K* X is taken on the rows: the batched product rounds differently
        slacks = _slacks(k_t.swapaxes(1, 2), (kh.reshape(-1, n) @ x_hat).reshape(kh.shape) - wh)
        yield kh, x_hat, slacks

        t = linalg.polar_factor(wh).ravel()
        # History is kept only from DEPTH steps before the first mixed one, so
        # solves that stop within the plain steps, every linearly independent
        # one measured, hold none. Kept from the start, it gives the same
        # outputs but raised the tracemalloc peak of an n = 128 li_ladder
        # solve from 3,331 to 4,612 KiB, and li_ladder's peak RSS by 1.5 MB.
        if step >= PLAIN_STEPS - DEPTH:
            f = t - kh.ravel()
            if prev is not None:
                diff_t.append(t - prev[0])
                diff_f.append(f - prev[1])
            prev = t, f
        if step >= PLAIN_STEPS and diff_f:
            gamma = _mixing_weights(np.array(diff_f), f)
            if gamma is not None:
                mixed = linalg.polar_factor((t - gamma @ np.array(diff_t)).reshape(kh.shape))
                w_mixed = mixed @ g
                if np.vdot(mixed, w_mixed).real >= x_hat.trace().real:
                    kh, wh = mixed, w_mixed
                    continue
            diff_t.clear()
            diff_f.clear()
            prev = None
        kh = t.reshape(kh.shape)
        wh = kh @ g


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
    :func:`qsd.lsm.compute_lsm`, and ``ValueError`` is raised unless ``tol``
    is finite and positive and ``max_iter`` is not negative.
    """
    if not 0.0 < tol < np.inf or max_iter < 0:
        raise ValueError(f"need finite tol > 0 and max_iter >= 0, got {tol!r}, {max_iter!r}")
    require_valid(e)
    g = e.weighted_states
    # margins can make an iterate converge only where slackness passes
    iterates = islice(_iterates(g, _lsm_factors(e)), max_iter + 1)
    for iteration, (kh, x_hat, slacks) in enumerate(iterates):
        if float(slacks.max()) <= tol:
            margins = _margins(x_hat - g)
            if float(margins.min()) >= -tol:
                return _solution(g, kh, x_hat, margins, slacks, iteration, True)
    return _solution(g, kh, x_hat, _margins(x_hat - g), slacks, max_iter, False)


def _solution(g, kh, x_hat, margins, slacks, iterations: int, converged: bool):
    """The returned measurement, its certificate and the solve's diagnostics,
    from the factors ``kh`` of the chosen iterate."""
    ops = linalg.factor_products(kh)
    primal = _trace_sum(g, ops)
    diag = SolveDiagnostics(iterations=iterations, primal_value=primal, converged=converged)
    return Povm(ops), _certificate(x_hat, primal, margins, slacks), diag
