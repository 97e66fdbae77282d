"""Quantum state ensembles.

An ensemble is a finite set of density operators with strictly positive priors
summing to one. Everything here rests on the weighted states ``p_i rho_i``,
their sum, the average state ``rho_bar``, the eigendecomposition of
``rho_bar`` and that of each state, which gives its rank and its thin
factor. This module validates
ensembles, decides whether the states span the space from the spectrum of
``rho_bar`` (the one span decision of the package), tests linear
independence, restricts an ensemble to the subspace it spans, and generates
seeded random ensembles for test corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

from . import linalg
from .errors import InvalidEnsembleError, SpanDeficientError

PRIOR_SUM_TOL = 1e-10
TRACE_TOL = 1e-9
PSD_TOL = 1e-9
# Asymmetry above this (relative to 1 + maxabs) means corrupted input, not roundoff.
HERMITIAN_ASYMMETRY_TOL = 1e-8


@dataclass(frozen=True)
class Ensemble:
    """Priors p_i and density operators rho_i of m states on an n-dimensional
    space, stacked as float64 ``(m,)`` and complex128 ``(m, n, n)`` arrays.

    The constructor copies both into read-only arrays, so neither the caller's
    arrays nor writes through ``e.priors`` or ``e.rhos`` can change it. It
    raises ``ValueError`` for a NaN or infinite entry in a state or a prior,
    as the wire decoders do; finite content that is not a valid ensemble
    still reaches ``validate``, because derived quantities wait for first use.
    """

    priors: np.ndarray
    rhos: np.ndarray

    def __post_init__(self):
        rhos = linalg.square_stack(self.rhos)
        priors = np.array(self.priors, dtype=np.float64)
        if priors.shape != rhos.shape[:1]:
            raise ValueError(f"got priors of shape {priors.shape} for {len(rhos)} states")
        if not np.isfinite(priors).all():
            raise ValueError(f"expected finite priors, got {priors.tolist()!r}")
        priors.flags.writeable = False
        object.__setattr__(self, "priors", priors)
        object.__setattr__(self, "rhos", rhos)

    @property
    def dim(self) -> int:
        return self.rhos.shape[-1]

    @property
    def num_states(self) -> int:
        return len(self.rhos)

    @cached_property
    def weighted_states(self) -> np.ndarray:
        """Read-only stack of herm(p_i rho_i), shape (m, n, n); its sum is rho_bar."""
        g = linalg.hermitian_part(self.priors[:, None, None] * self.rhos)
        g.flags.writeable = False
        return g

    @cached_property
    def span(self) -> tuple[np.ndarray, int, np.ndarray]:
        """Read-only ascending eigenvalues of rho_bar, the dimension the
        states span, and the read-only eigenvectors of rho_bar, as the
        columns of an n x n matrix in the eigenvalues' order.

        This is the package's one decision on whether the states span the space:
        the rank of rho_bar by :func:`qsd.linalg.spectrum_rank`, the rule every
        rank in the package uses, and the rank at which the weighted factors
        span the space, as the least-squares measurement needs. It is also the
        package's one decomposition of rho_bar: :func:`deflate` reads its
        basis from the eigenvectors, and from ``qsd.linalg._N_GRAM`` columns on
        the least-squares start reads the whole decomposition as that of the
        Gram matrix of its polar step (:func:`qsd.lsm._lsm_factors`). rho_bar,
        a sum of exactly Hermitian matrices, is exactly Hermitian, so it needs
        no symmetrizing.
        """
        w, v = linalg.eigh(np.add.reduce(self.weighted_states))
        w.flags.writeable = False
        v.flags.writeable = False
        return w, linalg.spectrum_rank(w), v

    @cached_property
    def state_spectra(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Read-only ascending eigenvalues ``(m, n)`` of each herm(rho_i),
        the eigenvectors of its top ``r`` ``(m, n, r)``, each state's rank by
        :func:`qsd.linalg.spectrum_rank`, and the width of each state's thin
        factor, with ``r`` the widest.

        This is the package's one decomposition of the states: validation
        reads their PSD margins from it, every state rank comes from it, and
        so do the thin factors of :func:`qsd.lsm._weighted_factors`. A factor
        keeps the top eigenvectors of its state, the state's rank of them,
        and also every eigenvalue w below the state's rank cut whose share
        ``p_i w / w_min`` of a least-squares operator, with w_min the smallest
        eigenvalue of rho_bar, that cut would count. Dropping such an
        eigenvalue could leave the operators short of the identity, even
        short of spanning the space; each one dropped moves an operator by
        less than the rank cut. Only the eigenvectors some factor reads are
        kept: ``r`` is n/4 on 4 linearly independent states of rank n/4.
        """
        w, v = linalg.eigh(linalg.hermitian_part(self.rhos))
        ranks = linalg.spectrum_rank(w)
        cut = linalg.PSD_RANK_REL_TOL * self.span[0][0]
        shares = np.add.reduce(self.priors[:, None] * w >= cut, axis=1, dtype=np.intp)
        widths = np.maximum(ranks, shares)
        v = np.ascontiguousarray(v[:, :, self.dim - int(np.maximum.reduce(widths)) :])
        for a in (w, v, ranks, widths):
            a.flags.writeable = False
        return w, v, ranks, widths


@dataclass(frozen=True)
class ValidationReport:
    """Per-state and global diagnostics from :func:`validate`.

    ``states_passed`` holds when every check but the span passes, and
    ``passed`` when the states also span the space.
    """

    psd_margins: tuple[float, ...]
    trace_deviations: tuple[float, ...]
    hermitian_deviations: tuple[float, ...]
    prior_sum_deviation: float
    min_prior: float
    span_rank: int
    dim: int
    states_passed: bool
    passed: bool


def validate(e: Ensemble) -> ValidationReport:
    """Check ensemble invariants and report every deviation.

    Never raises for bad content, which the constructor has already checked
    to be finite; failures are carried in the report. The ensemble passes iff
    all density operators are Hermitian PSD with unit trace (within
    tolerance), priors are positive and sum to one, and the states span the
    full space (``rho_bar`` has full rank).
    """
    rhos = e.rhos
    scale = 1 + np.maximum.reduce(np.abs(rhos), axis=(1, 2))
    psd_margins = e.state_spectra[0][:, 0]
    herm_devs = np.maximum.reduce(np.abs(rhos - np.conjugate(rhos.swapaxes(1, 2))), axis=(1, 2))
    trace_devs = np.abs(rhos.trace(axis1=1, axis2=2) - 1.0)
    span_rank = e.span[1]
    priors = e.priors
    prior_sum_dev = abs(float(np.add.reduce(priors)) - 1.0)
    min_prior = float(np.minimum.reduce(priors))
    states_ok = bool(
        np.logical_and.reduce(herm_devs <= HERMITIAN_ASYMMETRY_TOL * scale)
        and np.logical_and.reduce(psd_margins >= -PSD_TOL * scale)
        and np.logical_and.reduce(trace_devs <= TRACE_TOL)
        and prior_sum_dev <= PRIOR_SUM_TOL
        and min_prior > 0.0
    )
    return ValidationReport(
        psd_margins=tuple(psd_margins.tolist()),
        trace_deviations=tuple(trace_devs.tolist()),
        hermitian_deviations=tuple(herm_devs.tolist()),
        prior_sum_deviation=prior_sum_dev,
        min_prior=min_prior,
        span_rank=span_rank,
        dim=e.dim,
        states_passed=states_ok,
        passed=states_ok and span_rank == e.dim,
    )


def require_valid(e: Ensemble) -> None:
    """Raise unless :func:`validate` passes the ensemble.

    ``SpanDeficientError`` when the states are valid but do not span the
    space, otherwise ``InvalidEnsembleError``; both carry the validation
    report. The span of invalid states means nothing: indefinite states can
    make ``rho_bar`` look rank-deficient.
    """
    report = validate(e)
    if not report.states_passed:
        raise InvalidEnsembleError(report)
    if not report.passed:
        raise SpanDeficientError(report)


def is_linearly_independent(e: Ensemble) -> tuple[bool, int, int]:
    """Whether the collected state eigenvectors are linearly independent.

    Returns ``(flag, span_rank, total_rank)`` where ``span_rank`` is the
    dimension the states span (the rank of rho_bar, as in :func:`validate`)
    and ``total_rank`` is the sum of the state ranks of
    :attr:`Ensemble.state_spectra`; the flag is true iff the two agree.
    """
    span_rank = e.span[1]
    total_rank = int(e.state_spectra[2].sum())
    return span_rank == total_rank, span_rank, total_rank


def _resolve_priors(priors, m: int) -> tuple[float, ...]:
    if isinstance(priors, str):
        if priors != "uniform":
            raise ValueError(f"unrecognized priors value {priors!r}")
        # last prior absorbs the float residue so the sum is exactly 1
        vals = [1.0 / m] * m
        vals[-1] = 1.0 - sum(vals[:-1])
        return tuple(vals)
    vals = tuple(float(p) for p in priors)
    if len(vals) != m:
        raise ValueError(f"got {len(vals)} priors for {m} states")
    # written so that nan fails both tests
    if not all(0.0 < p < math.inf for p in vals):
        raise ValueError(f"priors must be finite and strictly positive, got {vals!r}")
    if not abs(sum(vals) - 1.0) <= PRIOR_SUM_TOL:
        raise ValueError(f"priors sum to {sum(vals)!r}, expected 1")
    return vals


def _is_int(v) -> bool:
    """Whether ``v`` is an integer, numpy's included, and not a bool."""
    return isinstance(v, Integral) and not isinstance(v, bool)


def _check_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is an integer, not a bool, and not
    negative: numpy would draw ``None`` from OS entropy, read ``True`` as 1
    and refuse a float with ``TypeError``."""
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"need an integer seed >= 0, got {seed!r}")


def _complex_normal(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    # Draw (rows, cols, 2) in C order: entry-minor, real before imaginary.
    draws = rng.standard_normal((rows, cols, 2))
    return draws[..., 0] + 1j * draws[..., 1]


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    z = _complex_normal(rng, n, n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_ensemble(
    dim: int,
    ranks,
    priors="uniform",
    seed: int = 0,
    require_independent: bool = False,
) -> Ensemble:
    """Generate a seeded random ensemble with the given state ranks.

    Each density operator is ``A A* / trace(A A*)`` for an n x r complex
    standard-normal matrix A. With ``require_independent`` the A blocks are
    disjoint column blocks of a random invertible basis built as
    U1 diag(s) U2* from two Haar-random unitaries and singular values drawn
    in [0.35, 1], so the state supports are generically non-orthogonal but
    linearly independent by construction (and well conditioned, keeping every
    state's rank exact); the ranks must then sum to ``dim``. Raises
    ``ValueError``, before any work, unless ``dim`` and every rank are
    integers, not bools, with ``dim >= 1`` and every rank in [1, dim], and
    unless ``seed`` is an integer, not a bool, and not negative. A string of
    ranks is refused, not read character by character.

    Deterministic for a fixed seed: the PRNG is numpy's PCG64 and the draw
    order is state-index major, matrix-entry minor, real part before
    imaginary part (the basis for the independent case is drawn first, as
    first unitary, then singular values, then second unitary).
    """
    _check_seed(seed)
    # a string is one rank that is not an integer, not a sequence of digits
    ranks = (ranks,) if isinstance(ranks, (str, bytes)) else tuple(ranks)
    if not (ranks and _is_int(dim) and all(_is_int(r) and 1 <= r <= dim for r in ranks)):
        raise ValueError(
            f"need integers, dim >= 1 and every rank in [1, dim], got {dim!r}, {ranks!r}"
        )
    if require_independent and sum(ranks) != dim:
        raise ValueError(
            f"independent ensembles need ranks summing to dim={dim}, "
            f"got sum {sum(ranks)}"
        )
    p = _resolve_priors(priors, len(ranks))
    rng = np.random.default_rng(seed)

    blocks: list[np.ndarray] = []
    if require_independent:
        u1 = _haar_unitary(dim, rng)
        s = rng.uniform(0.35, 1.0, size=dim)
        u2 = _haar_unitary(dim, rng)
        basis = (u1 * s) @ u2.conj().T
        off = 0
        for r in ranks:
            blocks.append(basis[:, off : off + r])
            off += r
    else:
        for r in ranks:
            blocks.append(_complex_normal(rng, dim, r))

    rhos = []
    for a in blocks:
        rho = a @ a.conj().T
        rho = (rho + rho.conj().T) / 2
        rho /= float(np.trace(rho).real)
        rhos.append(rho)
    return Ensemble(p, rhos)


def deflate(e: Ensemble) -> tuple[Ensemble, np.ndarray]:
    """Re-express an ensemble on the subspace its states actually span.

    Returns the reduced ensemble together with the read-only n x k orthonormal
    basis B of the spanned subspace, the eigenvectors of rho_bar above the span
    cut (largest eigenvalue first), read from :attr:`Ensemble.span`, so each
    new density operator is ``B* rho B``. The identity deflation (k == n) is
    allowed and harmless.
    """
    _, k, v = e.span
    basis = v[:, ::-1][:, :k]
    rhos = linalg.hermitian_part(basis.conj().T @ e.rhos @ basis)
    return Ensemble(e.priors, rhos), basis
