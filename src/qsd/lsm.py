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
from .ensemble import Ensemble, require_valid, span, weighted_states
from .errors import CountMismatchError, DimMismatchError


@dataclass(frozen=True)
class Povm:
    """PSD operators summing to the identity, stacked as an (m, n, n) array."""

    operators: np.ndarray

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
    """Stack square operators of one shape into a Povm.

    Only shapes are enforced here; completeness and positivity are verified
    separately so that broken candidate POVMs can still be inspected.
    """
    return Povm(linalg.square_stack(operators))


def require_match(e: Ensemble, p: Povm) -> None:
    """Raise unless the POVM acts on the ensemble's space with one outcome
    per state: ``DimMismatchError`` or ``CountMismatchError``."""
    if e.dim != p.dim:
        raise DimMismatchError(f"ensemble dim {e.dim} != povm dim {p.dim}")
    if e.num_states != p.num_outcomes:
        raise CountMismatchError(f"{e.num_states} states vs {p.num_outcomes} outcomes")


def compute_lsm(e: Ensemble) -> Povm:
    """Least-squares measurement of an ensemble.

    Raises ``SpanDeficientError`` when the states do not span the space
    (rho_bar singular; use :func:`qsd.ensemble.deflate` first in that case)
    and ``InvalidEnsembleError`` when the ensemble fails validation otherwise.
    """
    require_valid(e)
    return make_povm(_lsm_operators(weighted_states(e)))


def _lsm_operators(g: np.ndarray) -> np.ndarray:
    """``rho_bar^{-1/2} G_i rho_bar^{-1/2}`` over the (m, n, n) stack ``g``
    of weighted states of a validated ensemble (so rho_bar is invertible).

    The scaling is done in the eigenbasis of rho_bar, where each diagonal
    entry is divided by its eigenvalue exactly: orthogonal states get exact
    projectors, which the product ``W G_i W`` with ``W = rho_bar^{-1/2}``
    misses by a rounding of ``W`` squared.
    """
    w, v, _ = span(g)
    scaled = v.conj().T @ g @ v
    scaled /= np.sqrt(np.outer(w, w))
    return linalg.hermitian_part(v @ scaled @ v.conj().T)
