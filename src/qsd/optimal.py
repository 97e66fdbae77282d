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

The weighted states G_i and the operators Pi_i are held as stacked
``(m, n, n)`` arrays, so each step of an iteration is one batched numpy call
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
from .errors import DimMismatchError, NotBinaryError, SingularMatrixError
from .lsm import Povm, _lsm_operators, require_match

# Lambda eigenvalues below this (relative to maxabs) get a 1e-12 identity
# shift before inversion; guards rank-deficient iterates.
LAMBDA_FLOOR = 1e-12


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


def _slacks(diff, ops):
    """Largest entry magnitude of each (x_hat - G_i) Pi_i."""
    return np.abs(diff @ ops).max(axis=(1, 2))


def _residuals(x_hat, g, ops):
    """Feasibility margins and slackness residuals of ``x_hat``."""
    diff = x_hat - g
    return _margins(diff), _slacks(diff, ops)


def _iterates(g: np.ndarray, ops: np.ndarray):
    """Fixed-point ascent from ``ops``: yield every iterate, ``ops`` first, as
    (operators, x_hat, slacks). Never stops on its own; a yielded array is
    never written afterwards, so a consumer may keep it without a copy."""
    while True:
        gp = g @ ops
        x_hat = linalg.hermitian_part(gp.sum(axis=0))
        lam = linalg.hermitian_part((gp @ g).sum(axis=0))
        yield ops, x_hat, _slacks(x_hat - g, ops)

        w, v = np.linalg.eigh(lam)
        if float(w[0]) < LAMBDA_FLOOR * linalg.maxabs(lam):
            w = w + LAMBDA_FLOOR
        if float(w[0]) <= 0.0:
            raise SingularMatrixError("iteration map collapsed to a singular operator")
        s_inv = linalg.hermitian_part((v / np.sqrt(w)) @ v.conj().T)
        sg = s_inv @ g
        # B Pi_i B* with B = S G_i, as G_i S = B*; unlike S (G_i Pi_i G_i) S, whose
        # rounding |S|^2 amplifies, it keeps a projective Pi_i's null space
        ops = linalg.hermitian_part(sg @ ops @ np.conj(sg).swapaxes(-1, -2))


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
    iterates = islice(_iterates(g, _lsm_operators(e)), max_iter + 1)
    for iteration, (ops, x_hat, slacks) in enumerate(iterates):
        if float(slacks.max()) <= tol:
            margins = _margins(x_hat - g)
            if float(margins.min()) >= -tol:
                return _solution(g, ops, x_hat, margins, slacks, iteration, True)
    # The budget ran out. The loop is deterministic, so replaying it with
    # margins on every iterate finds the iterate with the best certificate.
    # The start is rebuilt rather than held, so a solve keeps no extra stack.
    best_score = np.inf
    for ops, x_hat, slacks in islice(_iterates(g, _lsm_operators(e)), max_iter + 1):
        margins = _margins(x_hat - g)
        score = max(-float(margins.min()), float(slacks.max()), 0.0)
        if score < best_score:
            best_score, best = score, (ops, x_hat, margins, slacks)
    return _solution(g, *best, max_iter, False)


def _solution(g, ops, x_hat, margins, slacks, iterations: int, converged: bool):
    """The returned measurement, its certificate and the solve's diagnostics."""
    primal = _trace_sum(g, ops)
    diag = SolveDiagnostics(iterations=iterations, primal_value=primal, converged=converged)
    return Povm(ops), _certificate(x_hat, primal, margins, slacks), diag
