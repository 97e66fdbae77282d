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
(n, r) and r the widest factor, starting from the least-squares factors
``rho_bar^{-1/2} F_i`` of :func:`qsd.lsm._lsm_factors`. With W_i = G_i K_i,
an iteration is X = herm(sum_i W_i K_i*), the slackness residuals of
((X - G_i) K_i) K_i* against the true G_i, and K_i <- Lambda^{-1/2} W_i with
Lambda = sum_i W_i W_i*, which is B_i Pi_i B_i* with B_i = Lambda^{-1/2} G_i
written in factors. Lambda^{-1/2} W is the unitary polar factor U V* of the
block row W = [W_1 ... W_m] = U s V*, and that is the update: U is square,
so sum_i K_i K_i* = U V* V U* = I for any W, and every iterate is a POVM at
rounding level however ill-conditioned Lambda is. U is square because the
kept factor columns span the space, so m r >= n: otherwise some unit y would
be orthogonal to all of them, and since every eigenvalue the factors drop
has p_i w < 1e-10 w_min (w_min the smallest eigenvalue of rho_bar),
y* rho_bar y < m 1e-10 w_min < w_min, which no unit y can reach.
W = 0 is the only input with no unique polar factor, and U V* is a POVM even
there; no valid ensemble reaches it in exact arithmetic, since each W_i is
nonzero at the start and the next G_i K_i = G_i M W_i with M = Lambda^{-1/2}
positive definite is zero only if W_i* M W_i is. K_i keeps its r columns, so a
projective Pi_i keeps its null space, and every product is thin: for linearly
independent states, whose ranks sum to n, an iteration costs a few n x n
products and one n x n SVD rather than a few stacks of m products.
Pi_i = herm(K_i K_i*) is formed only for the returned iterate.

The weighted states and the factors are held as stacked ``(m, n, n)`` and
``(m, n, r)`` arrays, so each step of an iteration is one batched numpy call
rather than a Python loop over the m operators. Slackness is checked on every
iterate; the feasibility margins, one batched eigenvalue decomposition, are
taken only on iterates whose slackness passes, since only there can they
decide convergence. Both are computed by the same routines that
:func:`certify` uses, and the solver returns the chosen iterate's own
certificate. A solve that exhausts its budget replays the deterministic loop
with margins on every iterate to pick the best one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import linalg
from .ensemble import Ensemble, require_valid
from .errors import DimMismatchError, NotBinaryError
from .lsm import Povm, _lsm_factors, require_match


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

    def feasible_at(self, tol: float) -> bool:
        return min(self.feas_margins) >= -tol

    def slack_at(self, tol: float) -> bool:
        return max(self.slack_residuals) <= tol

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
    """
    x_hat = linalg.as_matrix(x_hat)
    if x_hat.shape != (e.dim, e.dim):
        raise DimMismatchError(
            f"dual operator has shape {x_hat.shape}, expected ({e.dim}, {e.dim})"
        )
    x_hat = linalg.hermitian_part(x_hat)
    primal = prob_correct(e, p)
    return _certificate(x_hat, primal, *_residuals(x_hat, e.weighted_states, p.operators))


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
    for ``a = x_hat - G`` and the operators ``b``, or of
    ((x_hat - G_i) K_i) K_i* for their factors."""
    return np.abs(a @ b).max(axis=(1, 2))


def _residuals(x_hat, g, ops):
    """Feasibility margins and slackness residuals of ``x_hat``."""
    diff = x_hat - g
    return _margins(diff), _slacks(diff, ops)


def _iterates(g: np.ndarray, k: np.ndarray):
    """Fixed-point ascent from the factors ``k``, an (m, n, r) stack with
    Pi_i = K_i K_i*: yield every iterate, ``k`` first, as (factors, x_hat,
    slacks). Never stops on its own; a yielded array is never written
    afterwards, so a consumer may keep it without a copy."""
    m, n, r = k.shape
    while True:
        gk = g @ k
        kh = np.conj(k).swapaxes(-1, -2)
        x_hat = linalg.hermitian_part((gk @ kh).sum(axis=0))
        yield k, x_hat, _slacks((x_hat - g) @ k, kh)

        # K <- Lambda^{-1/2} W is the polar factor U V* of the (n, m r) block
        # row W = [W_1 ... W_m] = U s V*; U is square, so the K_i K_i* sum to
        # the identity for any W. It is B_i Pi_i B_i* with B_i = Lambda^{-1/2}
        # G_i in factors: K_i keeps its r columns, so unlike S (G_i Pi_i G_i) S,
        # whose rounding |S|^2 amplifies, it keeps a projective Pi_i's null space
        u, _, vh = np.linalg.svd(gk.transpose(1, 0, 2).reshape(n, m * r), full_matrices=False)
        k = (u @ vh).reshape(n, m, r).transpose(1, 0, 2)


def solve_optimal(
    e: Ensemble, tol: float = 1e-8, max_iter: int = 10000
) -> tuple[Povm, Certificate, SolveDiagnostics]:
    """Solve for the measurement maximizing the detection probability.

    Starts from the least-squares measurement (already optimal for symmetric
    ensembles, so a fixed point there) and runs the fixed-point ascent until
    the certificate passes at ``tol`` or the iteration budget runs out. On
    exhaustion the best iterate seen is returned with ``converged=False``
    rather than raising; hard instances are diagnosed, not aborted. Either
    way the certificate returned is the one the returned iterate was judged
    by. An ensemble that fails validation raises as in
    :func:`qsd.lsm.compute_lsm`, and ``ValueError`` is raised unless ``tol``
    is finite and positive and ``max_iter`` is not negative.
    """
    if not 0.0 < tol < np.inf or max_iter < 0:
        raise ValueError(f"need finite tol > 0 and max_iter >= 0, got {tol!r}, {max_iter!r}")
    require_valid(e)
    g = e.weighted_states
    # margins can make an iterate converge only where slackness passes
    iterates = islice(_iterates(g, _lsm_factors(e)), max_iter + 1)
    for iteration, (k, x_hat, slacks) in enumerate(iterates):
        if float(slacks.max()) <= tol:
            margins = _margins(x_hat - g)
            if float(margins.min()) >= -tol:
                return _solution(g, k, x_hat, margins, slacks, iteration, True)
    # The budget ran out. The loop is deterministic, so replaying it with
    # margins on every iterate finds the iterate with the best certificate.
    # The start is rebuilt rather than held, so a solve keeps no extra stack.
    best_score = np.inf
    for k, x_hat, slacks in islice(_iterates(g, _lsm_factors(e)), max_iter + 1):
        margins = _margins(x_hat - g)
        score = max(-float(margins.min()), float(slacks.max()), 0.0)
        if score < best_score:
            best_score, best = score, (k, x_hat, margins, slacks)
    return _solution(g, *best, max_iter, False)


def _solution(g, k, x_hat, margins, slacks, iterations: int, converged: bool):
    """The returned measurement, its certificate and the solve's diagnostics,
    from the factors ``k`` of the chosen iterate."""
    ops = linalg.factor_products(k)
    primal = _trace_sum(g, ops)
    diag = SolveDiagnostics(iterations=iterations, primal_value=primal, converged=converged)
    return Povm(ops), _certificate(x_hat, primal, margins, slacks), diag
