"""Least-squares (square-root) measurement.

Stack thin factors ``F_i`` of the weighted states, ``F_i F_i* = p_i rho_i`` up
to eigenvalues too small to count, into ``Psi = [F_1 ... F_m]``, so that
``Psi Psi* = rho_bar``. The measurement of Eldar & Forney, "On quantum
detection and the square-root measurement" (2001), is ``K_i K_i*`` for the
column blocks ``K_i`` of ``(Psi Psi*)^{-1/2} Psi``, the unitary polar factor
of ``Psi``. Taken as that, by the routine every solver step normalizes with,
it sums to the identity at rounding level however ill-conditioned rho_bar
is; it is also where the solver starts. For linearly independent ensembles
it is projective; in general it is only a valid POVM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensemble import Ensemble, require_valid


@dataclass(frozen=True)
class Povm:
    """Finite square operators of one shape, copied into a read-only
    (m, n, n) stack; other shapes and a NaN or infinite entry raise
    ``ValueError``. Completeness and positivity are checked
    separately, so that broken candidate POVMs can still be inspected.
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
    """Raise ``ValueError`` unless the POVM acts on the ensemble's space
    with one outcome per state."""
    if e.dim != p.dim:
        raise ValueError(f"ensemble dim {e.dim} != povm dim {p.dim}")
    if e.num_states != p.num_outcomes:
        raise ValueError(f"{e.num_states} states vs {p.num_outcomes} outcomes")


def compute_lsm(e: Ensemble) -> Povm:
    """Least-squares measurement of an ensemble.

    Raises ``SpanDeficientError`` when valid states do not span the space
    (rho_bar singular; use :func:`qsd.ensemble.deflate` first in that case)
    and ``InvalidEnsembleError`` when the ensemble fails validation otherwise.
    """
    require_valid(e)
    return make_povm(linalg.factor_products(_lsm_factors(e)))


def _weighted_factors(e: Ensemble) -> np.ndarray:
    """Adjoint thin factors ``F_i*`` with ``F_i F_i* = p_i rho_i`` up to small
    eigenvalues, over a validated ensemble, as an ``(m, r, n)`` stack.

    ``F_i*`` holds conjugated top eigenvectors of state i from
    :attr:`qsd.ensemble.Ensemble.state_spectra` as rows, each scaled by
    ``sqrt(p_i w)`` for its eigenvalue w, and is zero-padded to the ``r``
    rows of the widest factor. It keeps the state's rank of them, and
    also every eigenvalue below the state's rank cut whose share
    ``p_i w / w_min`` of a least-squares operator, with w_min the smallest
    eigenvalue of rho_bar, that cut would count. Dropping such an eigenvalue
    could leave the operators short of the identity, even short of spanning
    the space; each one dropped moves an operator by less than the rank cut.
    """
    w_min = e.span[0][0]
    values, vectors, ranks = e.state_spectra
    weighted = e.priors[:, None] * values
    shares = np.add.reduce(weighted >= linalg.PSD_RANK_REL_TOL * w_min, axis=1, dtype=np.intp)
    widths = np.maximum(ranks, shares)
    r = int(np.maximum.reduce(widths))
    top = e.dim - r
    keep = np.arange(r) >= r - widths[:, None]
    scale = np.sqrt(np.where(keep, weighted[:, top:], 0.0))
    return np.conj(vectors[:, :, top:]).swapaxes(1, 2) * scale[:, :, None]


def _lsm_factors(e: Ensemble) -> np.ndarray:
    """The ``(m, r, n)`` stack of the ``K_i*`` over a validated ensemble (so
    rho_bar = F F* is invertible); the least-squares operators are
    ``K_i K_i*``. Its ``(m r, n)`` row ``[K_1 ... K_m]*`` is the polar factor
    of that of the :func:`_weighted_factors`, ``[F_1 ... F_m]*``.
    """
    return linalg.polar_factor(_weighted_factors(e))
