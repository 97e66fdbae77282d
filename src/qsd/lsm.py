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

The polar factor takes no decomposition of its own beyond the states' and
rho_bar's, which the ensemble takes once each. Below n = 32, and where
rho_bar is conditioned past the guard of :func:`qsd.linalg.polar_factor`,
it is ``u @ vh`` of the thin SVD of Psi*. Elsewhere it reads rho_bar's
eigendecomposition from :attr:`qsd.ensemble.Ensemble.span` as that of
``Psi Psi*`` and takes one Newton-Schulz step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .ensemble import Ensemble, require_valid

# float64 rounding unit, for the test on the states' negative eigenvalues
_EPS = float(np.finfo(float).eps)


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

    ``F_i*`` holds the conjugated top eigenvectors of state i that
    :attr:`qsd.ensemble.Ensemble.state_spectra` keeps as rows, each scaled by
    ``sqrt(p_i w)`` for its eigenvalue w, as many as the state's factor
    width there, and is zero-padded to the ``r`` rows of the widest factor.
    """
    values, vectors, _, widths = e.state_spectra
    r = vectors.shape[-1]
    keep = np.arange(r) >= r - widths[:, None]
    scale = np.sqrt(np.where(keep, e.priors[:, None] * values[:, e.dim - r :], 0.0))
    return np.conj(vectors).swapaxes(1, 2) * scale[:, :, None]


def _lsm_factors(e: Ensemble) -> np.ndarray:
    """The ``(m, r, n)`` stack of the ``K_i*`` over a validated ensemble (so
    rho_bar = F F* is invertible); the least-squares operators are
    ``K_i K_i*``. Its ``(m r, n)`` row ``[K_1 ... K_m]*`` is the polar factor
    of that of the :func:`_weighted_factors`, ``[F_1 ... F_m]*``.

    The Gram matrix of that row is F F*, which is rho_bar but for what the
    factors drop, so the polar step reads rho_bar's eigendecomposition from
    :attr:`qsd.ensemble.Ensemble.span` as its Gram decomposition and takes
    none of its own (:func:`qsd.linalg.polar_excess` bounds what that adds).
    The bound needs every state eigenvalue the factors drop to be at least
    ``-n eps`` times rho_bar's largest, which a state that is PSD up to its
    ``eigh``'s rounding meets; validation admits more negative ones, and
    where a state has one, the row's own Gram matrix is decomposed.
    """
    w, _, v = e.span
    lowest = np.minimum.reduce(e.priors * e.state_spectra[0][:, 0])
    gram = (w, v) if lowest >= -e.dim * _EPS * w[-1] else None
    return linalg.polar_factor(_weighted_factors(e), gram)
