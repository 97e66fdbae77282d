"""Von Neumann structure checks for measurements.

A POVM is a Von Neumann measurement when its operators are mutually
orthogonal projections. :func:`vnm_report` makes that structural claim
executable in one verdict: idempotency, pairwise-orthogonality and
completeness residuals, and each operator's rank beside its state's rank.
Ranks follow the one rank rule, :func:`qsd.linalg.spectrum_rank`: an
operator's from its own eigenvalues, a state's from
:attr:`qsd.ensemble.Ensemble.state_spectra`. For a linearly independent
ensemble the optimal operators' ranks equal the state ranks and sum to the
dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import linalg
from .ensemble import Ensemble
from .lsm import Povm, require_match
from .optimal import _check_tol


@dataclass(frozen=True)
class PovmCheck:
    """Positivity margins and completeness residual of a candidate POVM."""

    psd_margins: tuple[float, ...]
    completeness_residual: float
    tol: float
    passed: bool


def _completeness_residual(p: Povm) -> float:
    """Largest entry magnitude of sum_i Pi_i - I."""
    return linalg.maxabs(p.operators.sum(axis=0) - np.eye(p.dim))


def check_povm(p: Povm, tol: float = 1e-8) -> PovmCheck:
    """Verify PSD-ness of each operator and that they sum to the identity.

    ``ValueError`` is raised unless ``tol`` is a real number, not a bool,
    finite and positive."""
    tol = _check_tol(tol)
    ops = p.operators
    scale = 1 + np.abs(ops).max(axis=(1, 2))
    margins = linalg.eigvalsh(linalg.hermitian_part(ops))[:, 0]
    completeness = _completeness_residual(p)
    return PovmCheck(
        psd_margins=tuple(margins.tolist()),
        completeness_residual=completeness,
        tol=tol,
        passed=bool(np.all(margins >= -tol * scale)) and completeness <= tol,
    )


class RankPair(NamedTuple):
    state_rank: int
    povm_rank: int
    equal: bool
    bounded: bool


@dataclass(frozen=True)
class VnmReport:
    """Residuals behind a Von Neumann verdict.

    ``orthogonality_residuals`` is an m x m matrix with zeros on the
    diagonal; entry (i, j) is the largest entry magnitude of Pi_i @ Pi_j.
    ``rank_pairs`` holds one pair per state.
    """

    idempotency_residuals: tuple[float, ...]
    orthogonality_residuals: np.ndarray
    completeness_residual: float
    rank_pairs: tuple[RankPair, ...]
    tol: float
    is_von_neumann: bool


def vnm_report(e: Ensemble, p: Povm, tol: float = 1e-6) -> VnmReport:
    """Whether the POVM consists of mutually orthogonal projections, with
    each operator's rank beside its state's rank, the rank of
    :attr:`qsd.ensemble.Ensemble.state_spectra`.

    The verdict is true iff every idempotency residual ||Pi^2 - Pi||, every
    pairwise residual ||Pi_i Pi_j|| (i != j) and the completeness residual
    are all within ``tol``, which must be a real number, not a bool, finite
    and positive, or ``ValueError`` is raised.
    """
    tol = _check_tol(tol)
    require_match(e, p)
    ops = p.operators
    idem = np.abs(ops @ ops - ops).max(axis=(1, 2))
    # row i is max|Pi_i Pi_j| over j; a product per row keeps memory at m n^2
    orth = np.stack([np.abs(op @ ops).max(axis=(1, 2)) for op in ops])
    np.fill_diagonal(orth, 0.0)
    completeness = _completeness_residual(p)
    verdict = (
        bool(np.all(idem <= tol))
        and float(orth.max(initial=0.0)) <= tol
        and completeness <= tol
    )
    return VnmReport(
        idempotency_residuals=tuple(idem.tolist()),
        orthogonality_residuals=orth,
        completeness_residual=completeness,
        rank_pairs=tuple(
            RankPair(state_rank=r, povm_rank=t, equal=t == r, bounded=t <= r)
            for r, t in zip(e.state_spectra[1].tolist(), p.ranks)
        ),
        tol=tol,
        is_von_neumann=verdict,
    )
