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
points satisfy the slackness conditions. Iteration stops once the certificate
built from X = herm(sum_j G_j Pi_j) passes feasibility and slackness at the
requested tolerance.

The weighted states G_i and the operators Pi_i are held as stacked
``(m, n, n)`` arrays, so each step of an iteration is one batched numpy call
rather than a Python loop over the m operators. The certificate is still
checked in full, at the requested tolerance, on every iteration, by the same
routine that :func:`certify` uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensemble import Ensemble, validate
from .errors import (
    CountMismatchError,
    DimMismatchError,
    NotBinaryError,
    SingularMatrixError,
    SpanDeficientError,
)
from .lsm import Povm, _lsm_operators, make_povm

# Lambda eigenvalues below this (relative to maxabs) get a 1e-12 identity
# shift before inversion; guards rank-deficient iterates.
LAMBDA_FLOOR = 1e-12


@dataclass(frozen=True)
class Certificate:
    """Dual operator with its feasibility margins and slackness residuals.

    ``feas_margins[i]`` is the smallest eigenvalue of ``x_hat - p_i rho_i``
    (nonnegative means the dual constraint holds); ``slack_residuals[i]`` is
    the largest entry magnitude of ``(x_hat - p_i rho_i) Pi_i``. A feasible
    and slack certificate proves the measurement globally optimal.
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
class IterateRecord:
    """One solver iterate's certificate summary, for duality audits."""

    iteration: int
    primal_value: float
    dual_value: float
    gap: float
    min_feas_margin: float
    max_slack_residual: float


@dataclass(frozen=True)
class SolveDiagnostics:
    iterations: int
    primal_value: float
    dual_value: float
    gap: float
    converged: bool
    history: tuple[IterateRecord, ...]


def prob_correct(e: Ensemble, p: Povm) -> float:
    """Probability of correct detection: sum_i p_i Tr(rho_i Pi_i)."""
    if e.dim != p.dim:
        raise DimMismatchError(f"ensemble dim {e.dim} != povm dim {p.dim}")
    if e.num_states != p.num_outcomes:
        raise CountMismatchError(
            f"{e.num_states} states vs {p.num_outcomes} outcomes"
        )
    return _trace_sum(_weighted_states(e), np.stack(p.operators))


def helstrom_binary(e: Ensemble) -> float:
    """Closed-form optimum for two states: (1 + ||p1 rho1 - p2 rho2||_1) / 2.

    Independent oracle for cross-checking the iterative solver; never used
    inside it.
    """
    if e.num_states != 2:
        raise NotBinaryError(f"need exactly 2 states, got {e.num_states}")
    s1, s2 = e.states
    delta = s1.prior * s1.rho - s2.prior * s2.rho
    return 0.5 * (1.0 + linalg.trace_norm(delta))


def certify(e: Ensemble, p: Povm, x_hat, tol: float = 1e-7) -> Certificate:
    """Evaluate the optimality certificate of a candidate dual operator.

    Computes all feasibility margins and slackness residuals without mutating
    the inputs. ``tol`` is only a convenience for callers that immediately
    test ``optimal_at``; the certificate itself carries raw residuals.
    """
    x_hat = linalg.as_matrix(x_hat)
    if x_hat.shape != (e.dim, e.dim):
        raise DimMismatchError(
            f"dual operator has shape {x_hat.shape}, expected ({e.dim}, {e.dim})"
        )
    if e.dim != p.dim:
        raise DimMismatchError(f"ensemble dim {e.dim} != povm dim {p.dim}")
    if e.num_states != p.num_outcomes:
        raise CountMismatchError(
            f"{e.num_states} states vs {p.num_outcomes} outcomes"
        )
    x_hat = linalg.hermitian_part(x_hat)
    g = _weighted_states(e)
    ops = np.stack(p.operators)
    dual = float(np.trace(x_hat).real)
    gap = dual - _trace_sum(g, ops)
    margins, slacks = _residuals(x_hat, g, ops, diff=g)
    return Certificate(
        x_hat=x_hat,
        dual_value=dual,
        gap=gap,
        feas_margins=tuple(margins.tolist()),
        slack_residuals=tuple(slacks.tolist()),
    )


def _weighted_states(e: Ensemble) -> np.ndarray:
    """The stack of herm(p_i rho_i), shape (m, n, n)."""
    return linalg.hermitian_part(e.priors[:, None, None] * np.stack(e.rhos))


def _trace_sum(g: np.ndarray, ops: np.ndarray) -> float:
    """sum_i Tr(G_i Pi_i) over two (m, n, n) stacks."""
    return float(np.einsum("ijk,ikj->", g, ops).real)


def _residuals(x_hat, g, ops, diff=None, prod=None):
    """Smallest eigenvalue of each x_hat - G_i and largest entry magnitude of
    each (x_hat - G_i) Pi_i. ``diff`` and ``prod`` are optional (m, n, n)
    output buffers; ``diff`` may be ``g`` itself, which is then overwritten."""
    diff = np.subtract(x_hat, g, out=diff)
    margins = np.linalg.eigvalsh(diff)[:, 0]
    slacks = np.abs(np.matmul(diff, ops, out=prod)).max(axis=(1, 2))
    return margins, slacks


def _ascend(g: np.ndarray, ops: np.ndarray, tol: float, max_iter: int):
    """Fixed-point ascent from ``ops``: the best iterate as (operators, x_hat,
    primal, dual, iteration), whether it converged, the iteration count and
    the per-iteration records."""
    # two (m, n, n) work buffers, reused by every iteration
    gp = np.empty_like(g)
    work = np.empty_like(g)

    history: list[IterateRecord] = []
    best_score = np.inf
    best: tuple[np.ndarray, np.ndarray, float, float, int] | None = None
    converged = False
    iteration = 0

    while True:
        np.matmul(g, ops, out=gp)
        x_hat = linalg.hermitian_part(gp.sum(axis=0))
        lam = linalg.hermitian_part(np.matmul(gp, g, out=work).sum(axis=0))
        primal = _trace_sum(g, ops)
        dual = float(np.trace(x_hat).real)
        margins, slacks = _residuals(x_hat, g, ops, gp, work)
        min_margin = float(margins.min())
        max_slack = float(slacks.max())

        history.append(
            IterateRecord(
                iteration=iteration,
                primal_value=primal,
                dual_value=dual,
                gap=dual - primal,
                min_feas_margin=min_margin,
                max_slack_residual=max_slack,
            )
        )

        # an iterate is never written once made, so best keeps it without a copy
        score = max(-min_margin, max_slack, 0.0)
        if score < best_score:
            best_score = score
            best = (ops, x_hat, primal, dual, iteration)

        if min_margin >= -tol and max_slack <= tol:
            converged = True
            best = (ops, x_hat, primal, dual, iteration)
            break
        if iteration >= max_iter:
            break

        w, v = np.linalg.eigh(lam)
        if float(w[0]) < LAMBDA_FLOOR * linalg.maxabs(lam):
            w = w + LAMBDA_FLOOR
        if float(w[0]) <= 0.0:
            raise SingularMatrixError("iteration map collapsed to a singular operator")
        s_inv = linalg.hermitian_part((v / np.sqrt(w)) @ v.conj().T)
        np.matmul(s_inv, g, out=gp)
        np.matmul(gp, ops, out=work)
        # G_i S is (S G_i)*, as S and G_i are Hermitian
        np.conj(gp, out=gp)
        update = np.matmul(work, gp.swapaxes(-1, -2))
        # the new iterate takes over the buffer gp, and the new array becomes gp
        ops, gp = linalg.hermitian_part(update, out=gp), update
        iteration += 1

    return best, converged, iteration, history


def solve_optimal(
    e: Ensemble, tol: float = 1e-8, max_iter: int = 10000
) -> tuple[Povm, Certificate, SolveDiagnostics]:
    """Solve for the measurement maximizing the detection probability.

    Starts from the least-squares measurement (already optimal for symmetric
    ensembles, so a fixed point there) and runs the fixed-point ascent until
    the certificate passes at ``tol`` or the iteration budget runs out. On
    exhaustion the best iterate seen is returned with ``converged=False``
    rather than raising; hard instances are diagnosed, not aborted.
    """
    report = validate(e)
    if report.span_rank < e.dim:
        raise SpanDeficientError(report.span_rank, e.dim)
    if not report.passed:
        raise ValueError("ensemble failed validation; run validate() for details")

    best, converged, iteration, history = _ascend(
        _weighted_states(e), _lsm_operators(e), tol, max_iter
    )
    ops_out, x_out, primal_out, dual_out, _ = best
    povm = make_povm(ops_out)
    cert = certify(e, povm, x_out, tol)
    diag = SolveDiagnostics(
        iterations=iteration,
        primal_value=primal_out,
        dual_value=dual_out,
        gap=dual_out - primal_out,
        converged=converged,
        history=tuple(history),
    )
    return povm, cert, diag
