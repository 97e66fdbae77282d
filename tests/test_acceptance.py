"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 4, 6 and 8 audit the solver runs produced for criteria 1 and 3, so
those corpora are solved once per session and shared.
"""

import functools
import time

import numpy as np
import pytest

from conftest import ket, projector, pure_ensemble, trine_vectors
from psi_route import numeric_rank

from qsd import (
    born_probabilities,
    certify,
    compute_lsm,
    helstrom_binary,
    is_projective,
    make_povm,
    prob_correct,
    random_ensemble,
    rank_profile,
    simulate,
    solve_optimal,
)
from qsd.linalg import maxabs

ZERO_PLUS_TARGET = 0.8535533905  # binary optimum for |0>, |+> at equal priors


def criterion(number):
    """Print one pass/fail line per criterion; the test returns its detail."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {number}")
                raise
            print(f"PASS criterion {number}: {detail}")

        return wrapper

    return deco


def rank_composition(rng, n, m):
    if m == 1:
        return (n,)
    cuts = np.sort(rng.choice(np.arange(1, n), size=m - 1, replace=False))
    return tuple(int(x) for x in np.diff(np.concatenate(([0], cuts, [n]))))


def floored_dirichlet(rng, m):
    p = 0.8 * rng.dirichlet(np.ones(m)) + 0.2 / m
    p = p / p.sum()
    return tuple(float(x) for x in p)


@pytest.fixture(scope="session")
def independent_corpus():
    """200 seeded random linearly independent ensembles."""
    rng = np.random.default_rng(20260810)
    shapes = [(n, m) for n in range(2, 7) for m in (2, 3, 4) if m <= n]
    corpus = []
    for k in range(200):
        n, m = shapes[k % len(shapes)]
        ranks = rank_composition(rng, n, m)
        priors = floored_dirichlet(rng, m)
        corpus.append(
            random_ensemble(n, ranks, priors=priors, seed=100000 + k,
                            require_independent=True)
        )
    return corpus


@pytest.fixture(scope="session")
def independent_runs(independent_corpus):
    start = time.perf_counter()
    runs = [(e, *solve_optimal(e)) for e in independent_corpus]
    elapsed = time.perf_counter() - start
    return runs, elapsed


@pytest.fixture(scope="session")
def binary_corpus():
    """100 seeded two-state ensembles: pure, mixed, dependent, skewed priors."""
    cfgs = [
        (2, (1, 1), True),
        (2, (1, 1), False),
        (2, (2, 2), False),
        (2, (2, 1), False),
        (3, (1, 2), True),
        (3, (2, 2), False),
        (3, (3, 3), False),
        (4, (2, 2), True),
        (4, (3, 3), False),
        (4, (4, 4), False),
    ]
    prior_cycle = [0.5, 0.7, 0.9, 0.35, 0.15, 0.61]
    corpus = []
    for k in range(100):
        dim, ranks, indep = cfgs[k % len(cfgs)]
        p1 = prior_cycle[k % len(prior_cycle)]
        corpus.append(
            random_ensemble(dim, ranks, priors=(p1, 1 - p1), seed=200000 + k,
                            require_independent=indep)
        )
    return corpus


@pytest.fixture(scope="session")
def binary_runs(binary_corpus):
    return [(e, *solve_optimal(e)) for e in binary_corpus]


@pytest.fixture(scope="session")
def trine_ensemble():
    return pure_ensemble(
        (1 / 3, 1 / 3, 1 / 3), trine_vectors()
    )


@pytest.fixture(scope="session")
def trine_run(trine_ensemble):
    return (trine_ensemble, *solve_optimal(trine_ensemble))


@pytest.fixture(scope="session")
def zero_plus_run():
    e = pure_ensemble((0.5, 0.5), (ket(1, 0), ket(1, 1)))
    return (e, *solve_optimal(e))


@criterion(1)
def test_criterion_1_optimal_measurements_are_von_neumann(independent_runs):
    runs, elapsed = independent_runs
    assert len(runs) == 200
    for e, povm, cert, diag in runs:
        assert diag.converged
        assert -1e-12 <= cert.gap <= e.dim * 1e-8
        assert is_projective(povm, 1e-6).is_von_neumann
        assert all(pair.equal for pair in rank_profile(e, povm))
        assert sum(povm.ranks) == e.dim
    assert elapsed < 120.0
    return f"200 independent ensembles solved to Von Neumann structure " f"in {elapsed:.1f}s"


@criterion(2)
def test_criterion_2_lsm_is_von_neumann(independent_corpus):
    start = time.perf_counter()
    for e in independent_corpus:
        povm = compute_lsm(e)
        m = e.num_states
        for i in range(m):
            for j in range(m):
                target = povm.operators[i] if i == j else 0.0
                resid = maxabs(povm.operators[i] @ povm.operators[j] - target)
                assert resid <= 1e-7
        f_ranks = tuple(numeric_rank(rho) for rho in e.rhos)
        assert tuple(numeric_rank(op) for op in povm.operators) == f_ranks
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    return f"200 least-squares measurements projective with matching " f"ranks in {elapsed:.1f}s"


@criterion(3)
def test_criterion_3_binary_solver_matches_closed_form(binary_runs):
    assert len(binary_runs) == 100
    worst = 0.0
    for e, povm, cert, diag in binary_runs:
        assert diag.converged
        err = abs(diag.primal_value - helstrom_binary(e))
        worst = max(worst, err)
        assert err <= 1e-7
    return f"100 two-state ensembles match the closed form " f"(worst |error| {worst:.2e})"


@criterion(4)
def test_criterion_4_duality_on_every_run(independent_runs, binary_runs):
    runs = list(independent_runs[0]) + list(binary_runs)
    worst = 0.0
    for e, povm, cert, diag in runs:
        assert diag.converged
        # the solver's default tol is 1e-8, so the certified gap is at most n * 1e-8
        assert -1e-12 <= cert.gap <= e.dim * 1e-8
        worst = max(worst, cert.gap)
        recheck = certify(e, povm, cert.x_hat)
        assert min(recheck.feas_margins) >= -1e-7
        assert max(recheck.slack_residuals) <= 1e-7
    return f"certified gap at most {worst:.1e} on all {len(runs)} runs; " f"all certificates feasible and slack at 1e-7"


@criterion(5)
def test_criterion_5_trine_control(trine_run):
    e, povm, cert, diag = trine_run
    # verify the hand-checkable certificate before trusting the 2/3 optimum
    hand_povm = make_povm([(2 / 3) * projector(v) for v in trine_vectors()])
    hand_cert = certify(e, hand_povm, np.eye(2) / 3)
    assert hand_cert.optimal_at(1e-12)
    assert abs(hand_cert.dual_value - 2 / 3) < 1e-12

    assert diag.converged
    assert abs(diag.primal_value - 2 / 3) <= 1e-6
    assert cert.optimal_at(1e-7)
    rep = is_projective(povm, 1e-6)
    assert not rep.is_von_neumann
    assert max(rep.idempotency_residuals) >= 1e-3
    lsm_pd = prob_correct(e, compute_lsm(e))
    assert abs(lsm_pd - diag.primal_value) <= 1e-7
    return "trine optimum 2/3 certified, non-projective, and matched " "by its least-squares measurement"


@criterion(6)
def test_criterion_6_rank_bound_everywhere(independent_runs, binary_runs, trine_run):
    runs = list(independent_runs[0]) + list(binary_runs) + [trine_run]
    violations = 0
    for e, povm, cert, diag in runs:
        for pair in rank_profile(e, povm):
            if not pair.bounded:
                violations += 1
    assert violations == 0
    return f"measurement ranks never exceed state ranks across " f"{len(runs)} runs"


@criterion(7)
def test_criterion_7_simulation_consistency(zero_plus_run):
    e, povm, cert, diag = zero_plus_run
    assert diag.converged
    res = simulate(e, povm, 10**6, seed=424242)
    assert abs(res.empirical_pd - ZERO_PLUS_TARGET) <= 3 * res.std_error

    cm = born_probabilities(e, povm)
    hits = 0
    for seed in range(20):
        run = simulate(e, povm, 10**5, seed=seed)
        if abs(run.empirical_pd - cm.analytic_pd) <= 3 * run.std_error:
            hits += 1
    assert hits >= 18
    return f"million-trial estimate within 3 standard errors; " f"{hits}/20 seeds inside the 3-sigma band"


@criterion(8)
def test_criterion_8_lsm_never_beats_optimal(independent_runs, binary_runs, trine_run):
    runs = list(independent_runs[0]) + list(binary_runs) + [trine_run]
    for e, povm, cert, diag in runs:
        lsm_pd = prob_correct(e, compute_lsm(e))
        assert lsm_pd <= diag.primal_value + 1e-9
    return f"least-squares detection probability bounded by the optimum " f"on all {len(runs)} corpus members"
