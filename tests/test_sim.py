import numpy as np
import pytest

from conftest import ket, projector, pure_ensemble

from qsd import (
    InvalidEnsembleError,
    born_probabilities,
    compute_lsm,
    make_povm,
    prob_correct,
    random_ensemble,
    simulate,
    solve_optimal,
)
from qsd.sim import _sampling_rows

ZERO_PLUS_OPTIMUM = 0.8535533905932737


def test_born_orthogonal_pair(orthonormal_pair, orthonormal_pair_povm):
    probs = born_probabilities(orthonormal_pair, orthonormal_pair_povm)
    assert np.abs(probs - np.eye(2)).max() < 1e-12
    assert abs(prob_correct(orthonormal_pair, orthonormal_pair_povm) - 1.0) < 1e-12


def test_born_single_outcome_column_of_ones(zero_plus):
    # Tr(rho_i I) = 1 for every state, so a single-outcome identity POVM
    # yields a column of ones and no diagonal detection probability
    probs = born_probabilities(zero_plus, make_povm([np.eye(2)]))
    assert probs.shape == (2, 1)
    assert np.abs(probs - 1.0).max() < 1e-12
    with pytest.raises(ValueError, match=r"2 states vs 1 outcomes"):
        prob_correct(zero_plus, make_povm([np.eye(2)]))
    with pytest.raises(ValueError, match=r"ensemble dim 2 != povm dim 3"):
        born_probabilities(zero_plus, make_povm([np.eye(3)]))


def test_born_rows_sum_to_one(zero_plus):
    probs = born_probabilities(zero_plus, compute_lsm(zero_plus))
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-8
    assert probs.min() >= -1e-10
    assert probs.max() <= 1 + 1e-10


def test_born_zero_plus_lsm_diagonal(zero_plus):
    # the symmetric two-pure-state case: the square-root measurement attains
    # the binary optimum, so both diagonal entries equal it
    probs = born_probabilities(zero_plus, compute_lsm(zero_plus))
    assert abs(probs[0, 0] - ZERO_PLUS_OPTIMUM) < 1e-12
    assert abs(probs[1, 1] - ZERO_PLUS_OPTIMUM) < 1e-12
    assert np.abs(probs - probs.T).max() < 1e-12


def test_born_probabilities_match_trace_loop():
    for k in range(5):
        e = random_ensemble(3, (1, 2, 3, 2), priors=(0.1, 0.2, 0.3, 0.4), seed=3300 + k)
        p = compute_lsm(e)
        probs = born_probabilities(e, p)
        for i, rho in enumerate(e.rhos):
            for j, op in enumerate(p.operators):
                assert abs(probs[i, j] - np.trace(rho @ op).real) <= 1e-14
        diagonal = sum(prior * probs[i, i] for i, prior in enumerate(e.priors))
        assert abs(prob_correct(e, p) - diagonal) <= 1e-14


def test_simulate_perfect_discrimination(orthonormal_pair, orthonormal_pair_povm):
    for seed in (0, 1, 99):
        res = simulate(orthonormal_pair, orthonormal_pair_povm, 1000, seed)
        assert res.empirical_pd == 1.0
        assert int(res.counts.sum()) == 1000
        assert res.counts[0, 1] == 0 and res.counts[1, 0] == 0


def test_simulate_single_state_identity():
    e = pure_ensemble((1.0,), (ket(1, 1),))
    res = simulate(e, make_povm([np.eye(2)]), 500, 7)
    assert res.empirical_pd == 1.0


def test_simulate_refuses_priors_that_do_not_sum_to_one():
    """Three orthogonal states with priors 0.2 each: the draw would take the
    last state for the missing 0.4 and read an empirical P_d of 1 for a
    measurement whose P_d is 0.6. The validation report travels with the
    error."""
    vectors = (ket(1, 0, 0), ket(0, 1, 0), ket(0, 0, 1))
    e = pure_ensemble((0.2, 0.2, 0.2), vectors)
    povm = make_povm([projector(v) for v in vectors])
    assert abs(prob_correct(e, povm) - 0.6) <= 1e-15
    with pytest.raises(InvalidEnsembleError) as exc_info:
        simulate(e, povm, 100000, seed=1)
    report = exc_info.value.report
    assert not report.states_passed and abs(report.prior_sum_deviation - 0.4) <= 1e-15


def test_simulate_reproducible(zero_plus):
    povm = compute_lsm(zero_plus)
    a = simulate(zero_plus, povm, 2000, seed=5)
    b = simulate(zero_plus, povm, 2000, seed=5)
    c = simulate(zero_plus, povm, 2000, seed=6)
    assert np.array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_simulate_zero_plus_hits_optimum(zero_plus):
    povm, _, diag = solve_optimal(zero_plus)
    assert diag.converged
    res = simulate(zero_plus, povm, 10**6, seed=12345)
    assert abs(res.empirical_pd - ZERO_PLUS_OPTIMUM) <= 3 * res.std_error


def test_simulate_coverage_over_seeds(zero_plus):
    povm, _, _ = solve_optimal(zero_plus)
    pd = prob_correct(zero_plus, povm)
    hits = 0
    for seed in range(20):
        res = simulate(zero_plus, povm, 10**5, seed=seed)
        if abs(res.empirical_pd - pd) <= 3 * res.std_error:
            hits += 1
    assert hits >= 18


def test_simulate_frequencies_converge(trine):
    povm = compute_lsm(trine)
    probs = born_probabilities(trine, povm)

    def max_row_deviation(trials, seed):
        res = simulate(trine, povm, trials, seed)
        totals = res.counts.sum(axis=1, keepdims=True)
        freq = res.counts / np.maximum(totals, 1)
        return float(np.abs(freq - probs).max())

    assert max_row_deviation(10**5, 31) < max_row_deviation(10**3, 31)


def test_simulate_clamps_roundoff_negatives():
    ops = [
        np.array([[1.0, 0.0], [0.0, -1e-12]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, 1.0 + 1e-12]], dtype=complex),
    ]
    e = pure_ensemble((0.5, 0.5), (ket(1, 0), ket(0, 1)))
    res = simulate(e, make_povm(ops), 100, seed=3)
    assert int(res.counts.sum()) == 100


def test_simulate_rejects_invalid_negatives():
    ops = [
        np.array([[1.0, 0.0], [0.0, -1e-6]], dtype=complex),
        np.array([[0.0, 0.0], [0.0, 1.0 + 1e-6]], dtype=complex),
    ]
    e = pure_ensemble((0.5, 0.5), (ket(1, 0), ket(0, 1)))
    with pytest.raises(ValueError, match=r"below -1e-10; POVM is invalid"):
        simulate(e, make_povm(ops), 100, seed=3)
    # PSD operators that sum to I/2 give rows that sum to 1/2
    with pytest.raises(ValueError, match=r"POVM is not complete"):
        simulate(e, make_povm([np.eye(2) / 4] * 2), 100, seed=3)


def test_sampling_rows_refuse_a_nan_probability():
    """NaN fails every comparison, so a NaN probability must fail the
    checks rather than slip past them into the sampler."""
    for probs in ([[0.5, 0.5], [np.nan, 1.0]], [[np.nan, 0.0], [0.0, 1.0]],
                  [[0.5, 0.5], [0.0, np.nan]]):
        with pytest.raises(ValueError):
            _sampling_rows(np.array(probs))


def test_simulate_requires_trials():
    """A trial count must be an integer of at least 1: a float is not
    truncated, a string not parsed and a bool not read as 0 or 1."""
    e = pure_ensemble((1.0,), (ket(1, 0),))
    povm = make_povm([np.eye(2)])
    for trials in (0, 2.7, "5", True, False):
        with pytest.raises(ValueError):
            simulate(e, povm, trials, seed=0)
    res = simulate(e, povm, np.int64(3), seed=0)
    assert res.trials == 3 and type(res.trials) is int


def test_simulate_and_random_ensemble_require_seeds():
    """A seed must be an integer of at least 0, refused before any work:
    None is not read as OS entropy, a bool not as 0 or 1 and a float not
    left to numpy's TypeError. A numpy integer is an integer, and draws and
    reports as the Python int of its value."""
    e = pure_ensemble((1.0,), (ket(1, 0),))
    povm = make_povm([np.eye(2)])
    for seed in (None, True, False, 1.5, 1.0, "1", -1):
        with pytest.raises(ValueError):
            simulate(e, povm, 10, seed=seed)
        with pytest.raises(ValueError):
            random_ensemble(3, (1, 2), seed=seed)
    res = simulate(e, povm, 10, seed=np.int64(1))
    assert res.seed == 1 and type(res.seed) is int
    assert np.array_equal(res.counts, simulate(e, povm, 10, seed=1).counts)
    a, b = random_ensemble(3, (1, 2), seed=np.uint64(5)), random_ensemble(3, (1, 2), seed=5)
    assert np.array_equal(a.rhos, b.rhos) and np.array_equal(a.priors, b.priors)


def test_std_error_formula(zero_plus):
    povm = compute_lsm(zero_plus)
    res = simulate(zero_plus, povm, 4096, seed=9)
    expected = np.sqrt(res.empirical_pd * (1 - res.empirical_pd) / 4096)
    assert abs(res.std_error - expected) < 1e-15
