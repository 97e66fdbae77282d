"""Least-squares (square-root) measurement.

The measurement operator for state i is built from the prior-weighted factor
block psi_i and the inverse square root of Psi Psi*, where Psi stacks all
blocks side by side. For linearly independent ensembles this measurement is
projective; in general it is only a valid POVM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensemble import Ensemble, build_psi, factorize, is_linearly_independent, validate
from .errors import DimMismatchError, SingularMatrixError, SpanDeficientError


@dataclass(frozen=True)
class Povm:
    """A list of PSD operators summing to the identity, with measured ranks."""

    dim: int
    operators: tuple[np.ndarray, ...]
    ranks: tuple[int, ...]

    @property
    def num_outcomes(self) -> int:
        return len(self.operators)


def make_povm(operators, rank_tol: float = linalg.RANK_REL_TOL) -> Povm:
    """Package operators into a Povm, measuring each operator's rank.

    Only shapes are enforced here; completeness and positivity are verified
    separately so that broken candidate POVMs can still be inspected.
    """
    ops = tuple(linalg.as_matrix(op) for op in operators)
    if not ops:
        raise ValueError("a POVM needs at least one operator")
    dim = ops[0].shape[0]
    for k, op in enumerate(ops):
        if op.shape != (dim, dim):
            raise DimMismatchError(
                f"operator {k} has shape {op.shape}, expected ({dim}, {dim})"
            )
    ranks = tuple(linalg.numeric_rank(np.stack(ops), rank_tol).tolist())
    return Povm(dim=dim, operators=ops, ranks=ranks)


def compute_lsm(e: Ensemble) -> Povm:
    """Least-squares measurement of an ensemble.

    Evaluated as written: the inverse square root of Psi Psi* applied to each
    block psi_i, then the outer product. Raises ``SpanDeficientError`` when
    the state eigenvectors do not span the space (Psi Psi* singular); use
    :func:`qsd.ensemble.deflate` first in that case.
    """
    report = validate(e)
    if report.span_rank < e.dim:
        raise SpanDeficientError(report.span_rank, e.dim)
    if not report.passed:
        raise ValueError("ensemble failed validation; run validate() for details")
    return make_povm(_lsm_operators(e))


def _lsm_operators(e: Ensemble) -> np.ndarray:
    """The least-squares operators of a validated ensemble, stacked (m, n, n)."""
    block = build_psi(e, factorize(e))
    gram = linalg.hermitian_part(block.psi @ block.psi.conj().T)
    try:
        w = linalg.inv_sqrt_psd(gram)
    except SingularMatrixError:
        raise SpanDeficientError(linalg.numeric_rank(block.psi), e.dim) from None
    ops = np.empty((e.num_states, e.dim, e.dim), dtype=np.complex128)
    for i in range(e.num_states):
        mu = w @ block.block(i)
        np.matmul(mu, mu.conj().T, out=ops[i])
    return linalg.hermitian_part(ops)


def lsm_is_projective_expected(e: Ensemble) -> bool:
    """Whether the least-squares measurement must come out projective.

    True exactly when the ensemble is linearly independent; used to drive
    conditional assertions in verification suites.
    """
    flag, _, _ = is_linearly_independent(e)
    return flag
