"""Least-squares (square-root) measurement.

With the average state rho_bar = sum_i p_i rho_i, the measurement operator for
state i is ``Pi_i = rho_bar^{-1/2} p_i rho_i rho_bar^{-1/2}``. This is the
``(Psi Psi*)^{-1/2} psi_i`` form of Eldar & Forney, "On quantum detection and
the square-root measurement" (2001), since ``Psi Psi* = rho_bar``; no state
needs to be factorized. For linearly independent ensembles this measurement is
projective; in general it is only a valid POVM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensemble import Ensemble, require_valid
from .errors import CountMismatchError, DimMismatchError


@dataclass(frozen=True)
class Povm:
    """Square operators of one shape, copied into a read-only (m, n, n) stack;
    other shapes raise ``DimMismatchError``. Completeness and positivity are
    checked separately, so that broken candidate POVMs can still be inspected.
    """

    operators: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "operators", linalg.square_stack(self.operators))

    @property
    def dim(self) -> int:
        return self.operators.shape[-1]

    @property
    def num_outcomes(self) -> int:
        return len(self.operators)

    @property
    def ranks(self) -> tuple[int, ...]:
        """Rank of each operator by :func:`qsd.linalg.psd_rank`."""
        return tuple(linalg.psd_rank(self.operators).tolist())


def make_povm(operators) -> Povm:
    """The :class:`Povm` of the square operators ``operators``."""
    return Povm(operators)


def require_match(e: Ensemble, p: Povm) -> None:
    """Raise unless the POVM acts on the ensemble's space with one outcome
    per state: ``DimMismatchError`` or ``CountMismatchError``."""
    if e.dim != p.dim:
        raise DimMismatchError(f"ensemble dim {e.dim} != povm dim {p.dim}")
    if e.num_states != p.num_outcomes:
        raise CountMismatchError(f"{e.num_states} states vs {p.num_outcomes} outcomes")


def compute_lsm(e: Ensemble) -> Povm:
    """Least-squares measurement of an ensemble.

    Raises ``SpanDeficientError`` when valid states do not span the space
    (rho_bar singular; use :func:`qsd.ensemble.deflate` first in that case)
    and ``InvalidEnsembleError`` when the ensemble fails validation otherwise.
    """
    require_valid(e)
    return make_povm(_lsm_operators(e))


def _lsm_operators(e: Ensemble) -> np.ndarray:
    """``rho_bar^{-1/2} G_i rho_bar^{-1/2}`` over the weighted states G_i of
    a validated ensemble (so rho_bar is invertible).

    The scaling is done in the eigenbasis of rho_bar, where each diagonal
    entry is divided by its eigenvalue exactly: orthogonal states get exact
    projectors, which the product ``W G_i W`` with ``W = rho_bar^{-1/2}``
    misses by a rounding of ``W`` squared.
    """
    w, v, _ = e.span
    scaled = v.conj().T @ e.weighted_states @ v
    scaled /= np.sqrt(np.outer(w, w))
    return linalg.hermitian_part(v @ scaled @ v.conj().T)
