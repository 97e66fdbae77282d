"""Monte Carlo simulation of the detection experiment.

Each trial prepares a state drawn from the priors and samples a measurement
outcome from the Born probabilities. Sampling is inverse-CDF with a single
uniform draw per stage (state, then outcome), two draws per trial in a fixed
order, so runs are reproducible per seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .ensemble import Ensemble, InvalidEnsembleError, _check_seed, validate
from .lsm import Povm, require_match

# Entries at or above this are roundoff; anything more negative is an invalid
# POVM, not noise.
NEG_PROB_TOL = -1e-10
ROW_SUM_TOL = 1e-8


@dataclass(frozen=True)
class SimResult:
    trials: int
    seed: int
    counts: np.ndarray
    empirical_pd: float
    std_error: float


def born_probabilities(e: Ensemble, p: Povm) -> np.ndarray:
    """Exact outcome probabilities ``Tr(rho_i Pi_j)`` for every prepared
    state i and outcome j, as an (m, k) array.

    The outcome count k may differ from the state count m (e.g. a single
    identity-resolution outcome); the array is then rectangular, but the
    dimensions must agree or ``ValueError`` is raised. The probability of
    correct detection is :func:`qsd.optimal.prob_correct`.
    """
    if e.dim != p.dim:
        raise ValueError(f"ensemble dim {e.dim} != povm dim {p.dim}")
    return np.einsum("ikl,jlk->ij", e.rhos, p.operators).real


def _sampling_rows(probs: np.ndarray) -> np.ndarray:
    # written so that a NaN probability fails both tests
    if not probs.min() >= NEG_PROB_TOL:
        raise ValueError(
            f"outcome probability {float(probs.min()):.3e} below "
            f"{NEG_PROB_TOL:.0e}; POVM is invalid"
        )
    rows = np.clip(probs, 0.0, None)
    sums = rows.sum(axis=1)
    if not np.abs(sums - 1.0).max() <= ROW_SUM_TOL:
        raise ValueError(
            f"outcome probabilities sum to {sums!r}; POVM is not complete"
        )
    return rows / sums[:, None]


def simulate(e: Ensemble, p: Povm, trials: int, seed: int) -> SimResult:
    """Run the detection experiment and tally a confusion-count matrix.

    ``ValueError`` is raised, before any work, unless ``trials`` is an
    integer, not a bool, of at least 1 and ``seed`` one of at least 0, and
    ``InvalidEnsembleError``, carrying the validation report, unless the
    states and priors pass :func:`qsd.ensemble.validate`: the
    states are drawn from the priors, so priors that do not sum to one would
    bias the draw. States that do not span the space are simulated.
    """
    if isinstance(trials, bool) or not isinstance(trials, Integral):
        raise ValueError(f"trials must be an integer, got {trials!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _check_seed(seed)
    require_match(e, p)
    report = validate(e)
    if not report.states_passed:
        raise InvalidEnsembleError(report)
    rows = _sampling_rows(born_probabilities(e, p))
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
        trials=int(trials),
        seed=int(seed),
        counts=counts,
        empirical_pd=empirical,
        std_error=std_error,
    )

