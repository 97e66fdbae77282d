"""Monte Carlo simulation of the detection experiment.

Each trial prepares a state drawn from the priors and samples a measurement
outcome from the Born probabilities. Sampling is inverse-CDF with a single
uniform draw per stage (state, then outcome), two draws per trial in a fixed
order, so runs are reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import Ensemble
from .errors import DimMismatchError
from .lsm import Povm, require_match

# Entries at or above this are roundoff; anything more negative is an invalid
# POVM, not noise.
NEG_PROB_TOL = -1e-10
ROW_SUM_TOL = 1e-8


@dataclass(frozen=True)
class ConfusionMatrix:
    """Outcome probabilities: probs[i][j] = Tr(rho_i Pi_j).

    ``analytic_pd`` is the prior-weighted diagonal sum; it is None when the
    outcome count differs from the state count (no diagonal to speak of).
    """

    probs: np.ndarray
    analytic_pd: float | None


@dataclass(frozen=True)
class SimResult:
    trials: int
    seed: int
    counts: np.ndarray
    empirical_pd: float
    std_error: float


def born_probabilities(e: Ensemble, p: Povm) -> ConfusionMatrix:
    """Exact outcome probabilities for every (prepared state, outcome) pair.

    The outcome count may differ from the state count (e.g. a single
    identity-resolution outcome); the matrix is then rectangular.
    """
    if e.dim != p.dim:
        raise DimMismatchError(f"ensemble dim {e.dim} != povm dim {p.dim}")
    probs = np.einsum("ikl,jlk->ij", e.rhos, p.operators).real
    analytic = None
    if e.num_states == p.num_outcomes:
        analytic = float(e.priors @ np.diagonal(probs))
    return ConfusionMatrix(probs=probs, analytic_pd=analytic)


def _sampling_rows(probs: np.ndarray) -> np.ndarray:
    if float(probs.min()) < NEG_PROB_TOL:
        raise ValueError(
            f"outcome probability {float(probs.min()):.3e} below "
            f"{NEG_PROB_TOL:.0e}; POVM is invalid"
        )
    rows = np.clip(probs, 0.0, None)
    sums = rows.sum(axis=1)
    if float(np.abs(sums - 1.0).max()) > ROW_SUM_TOL:
        raise ValueError(
            f"outcome probabilities sum to {sums!r}; POVM is not complete"
        )
    return rows / sums[:, None]


def simulate(e: Ensemble, p: Povm, trials: int, seed: int) -> SimResult:
    """Run the detection experiment and tally a confusion-count matrix."""
    trials = int(trials)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    require_match(e, p)
    cm = born_probabilities(e, p)
    rows = _sampling_rows(cm.probs)
    m = rows.shape[0]

    prior_cum = np.cumsum(e.priors)
    prior_cum[-1] = 1.0
    row_cum = np.cumsum(rows, axis=1)
    row_cum[:, -1] = 1.0

    rng = np.random.default_rng(seed)
    u = rng.random((trials, 2))
    prepared = np.searchsorted(prior_cum, u[:, 0], side="right")

    counts = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        mask = prepared == i
        if not np.any(mask):
            continue
        outcomes = np.searchsorted(row_cum[i], u[mask, 1], side="right")
        counts[i] = np.bincount(outcomes, minlength=m)

    empirical = float(np.trace(counts)) / trials
    std_error = float(np.sqrt(empirical * (1.0 - empirical) / trials))
    return SimResult(
        trials=trials,
        seed=int(seed),
        counts=counts,
        empirical_pd=empirical,
        std_error=std_error,
    )

