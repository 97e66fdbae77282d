"""The stacked solver against the per-operator loop it replaced, and the
accelerated loop against the plain one.

``reference_solve`` and ``reference_certificate`` are the fixed-point loop
and the certificate check written one operator at a time, as the formulas
read. They are the oracle for ``plain_iterates``, the stacked loop without
Anderson mixing, in which every step is ``polar_factor(G K)``: its iterates,
whose operators are ``herm(K_i K_i*)`` of its factors, must match the
reference's one by one, and ``solve_optimal`` driven by it must stop for the
same reason and land on the same iterate. The mixed iterates of
``_iterates`` take other paths to the optimum, so they are held to the
certificate and to the plain loop's certified answer instead. The solver's
answer is also held to the problem's symmetries and bounds, and its screen,
which skips iterates without forming their certificate, to a solve that
forms the full certificate on every iterate.
"""

from itertools import islice

import numpy as np
import pytest

from psi_route import numeric_rank

import qsd.linalg
import qsd.optimal
from qsd import (
    Ensemble,
    Povm,
    certify,
    check_povm,
    compute_lsm,
    prob_correct,
    random_ensemble,
    solve_optimal,
)
from qsd.linalg import factor_products, hermitian_part, maxabs, polar_factor
from qsd.lsm import _lsm_factors
from qsd.optimal import PLAIN_STEPS, _allowance, _certificate, _iterates, _slackness

MAX_ITER = 300
# The reference's shift of Lambda's eigenvalues when the smallest is below
# this fraction of the largest, as the formula was first transcribed. The
# solver needs none: its update U V* is a POVM for any Lambda.
LAMBDA_FLOOR = 1e-12


def plain_iterates(g, kh):
    """``_iterates`` without Anderson mixing: every step is K <- polar_factor(G K),
    taken, as ``_iterates`` takes it, on the adjoint W* = K* G of the block
    row, from and to the (m, r, n) stack ``kh`` of the K_i*. Yields what
    ``_iterates`` yields, computed the same way: the factors, W* and x = K W*.
    So a solve that stops before the first mixed step is this loop's bit for
    bit."""
    n = kh.shape[-1]
    while True:
        wh = kh @ g
        yield kh, wh, kh.conj().reshape(-1, n).T @ wh.reshape(-1, n)
        kh = polar_factor(wh)


def solve_plain(e, **kwargs):
    """``solve_optimal`` with its loop replaced by ``plain_iterates``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsd.optimal, "_iterates", plain_iterates)
        return solve_optimal(e, **kwargs)


def reference_certificate(e, ops, x_hat):
    """Per-operator margins, residuals, dual value and certified gap of
    ``x_hat``: ``Tr X + n max(0, -min margin) - P_d``."""
    x_hat = hermitian_part(x_hat)
    margins, slacks = [], []
    primal = 0.0
    for prior, rho, op in zip(e.priors, e.rhos, ops):
        diff = x_hat - prior * rho
        margins.append(float(np.linalg.eigvalsh(hermitian_part(diff))[0]))
        slacks.append(maxabs(diff @ op))
        primal += prior * float(np.trace(rho @ op).real)
    dual = float(np.trace(x_hat).real)
    return margins, slacks, dual, dual + e.dim * max(0.0, -min(margins)) - primal


def reference_solve(e, tol=1e-8, max_iter=10000):
    """The fixed-point ascent, one operator at a time.

    Returns the last iterate's operators, dual operator and primal value,
    the iteration count, whether it converged, and the per-iteration
    (primal, dual, min margin, max slack) records.
    """
    g = [hermitian_part(prior * rho) for prior, rho in zip(e.priors, e.rhos)]
    ops = [np.array(op) for op in compute_lsm(e).operators]
    history = []
    converged = False
    iteration = 0
    while True:
        acc = np.zeros_like(g[0])
        for gi, pi in zip(g, ops):
            acc += gi @ pi
        x_hat = hermitian_part(acc)
        primal = 0.0
        for prior, rho, pi in zip(e.priors, e.rhos, ops):
            primal += prior * float(np.trace(rho @ pi).real)
        dual = float(np.trace(x_hat).real)
        min_margin = np.inf
        max_slack = 0.0
        for gi, pi in zip(g, ops):
            diff = x_hat - gi
            min_margin = min(min_margin, float(np.linalg.eigvalsh(hermitian_part(diff))[0]))
            max_slack = max(max_slack, maxabs(diff @ pi))
        history.append((primal, dual, min_margin, max_slack))

        if min_margin >= -tol and max_slack <= tol:
            converged = True
            break
        if iteration >= max_iter:
            break

        lam = np.zeros_like(x_hat)
        for gi, pi in zip(g, ops):
            lam += gi @ pi @ gi
        lam = hermitian_part(lam)
        w, v = np.linalg.eigh(lam)
        if float(w[0]) < LAMBDA_FLOOR * maxabs(lam):
            w = w + LAMBDA_FLOOR
        s_inv = hermitian_part((v / np.sqrt(w)) @ v.conj().T)
        ops = [hermitian_part((s_inv @ gi) @ pi @ (gi @ s_inv)) for gi, pi in zip(g, ops)]
        iteration += 1
    return ops, x_hat, primal, iteration, converged, history


def dependent_corpus(count=40):
    """Seeded spanning draws, n 2-6 and m 2-7, ranks in 1..n, priors
    alternately uniform and flat-Dirichlet; span-deficient draws are skipped."""
    out = []
    k = 0
    while len(out) < count:
        rng = np.random.default_rng([20260, k])
        n, m = 2 + k % 5, 2 + (k // 5) % 6
        ranks = [int(r) for r in rng.integers(1, n + 1, size=m)]
        priors = "uniform"
        if k % 2 == 0:
            p = rng.dirichlet(np.ones(m))
            priors = (*p[:-1], 1.0 - p[:-1].sum())
        e = random_ensemble(n, ranks, priors=priors, seed=int(rng.integers(2**31)))
        k += 1
        if numeric_rank(np.hstack(e.rhos)) == n:
            out.append((e, MAX_ITER))
    return out


def independent_corpus():
    return [
        (random_ensemble(32, (8, 8, 8, 8), seed=5100 + k, require_independent=True), 10000)
        for k in range(3)
    ]


def assert_matches_reference(e, max_iter):
    """Solve both ways and compare; return the reference's stop and history."""
    povm, cert, diag = solve_plain(e, max_iter=max_iter)
    ops, x_hat, primal, iterations, converged, history = reference_solve(e, max_iter=max_iter)
    assert diag.iterations == iterations
    assert diag.converged == converged
    assert abs(diag.primal_value - primal) <= 1e-12
    g = e.weighted_states
    iterates = list(islice(plain_iterates(g, _lsm_factors(e)), len(history)))
    assert len(iterates) == len(history)
    for (k_k, wh_k, x_k), (p, d, margin, slack) in zip(iterates, history):
        x_k, slacks_k = _slackness(k_k, wh_k, x_k)
        assert abs(prob_correct(e, Povm(factor_products(k_k))) - p) <= 1e-12
        assert abs(float(np.trace(x_k).real) - d) <= 1e-12
        assert abs(float(np.linalg.eigvalsh(x_k - g)[:, 0].min()) - margin) <= 1e-10
        assert abs(float(slacks_k.max()) - slack) <= 1e-10
    for got, want in zip(povm.operators, ops):
        assert maxabs(got - want) <= 1e-10
    margins, slacks, dual, gap = reference_certificate(e, ops, x_hat)
    assert np.allclose(cert.feas_margins, margins, rtol=0, atol=1e-10)
    assert np.allclose(cert.slack_residuals, slacks, rtol=0, atol=1e-10)
    assert abs(cert.dual_value - dual) <= 1e-12
    assert abs(cert.gap - gap) <= 1e-12

    # certify on the returned measurement follows the per-operator formula
    recheck = certify(e, povm, cert.x_hat)
    margins, slacks, dual, gap = reference_certificate(e, povm.operators, cert.x_hat)
    assert np.allclose(recheck.feas_margins, margins, rtol=0, atol=1e-10)
    assert np.allclose(recheck.slack_residuals, slacks, rtol=0, atol=1e-10)
    assert abs(recheck.dual_value - dual) <= 1e-12
    assert abs(recheck.gap - gap) <= 1e-12
    return converged, history


def test_stacked_solver_matches_per_operator_loop():
    stops = set()
    worse_steps = []
    for e, max_iter in dependent_corpus() + independent_corpus():
        converged, history = assert_matches_reference(e, max_iter)
        stops.add(converged)
        scores = [max(-margin, slack, 0.0) for _, _, margin, slack in history]
        worse = [k for k in range(1, len(scores)) if scores[k] > scores[k - 1]]
        if worse:
            worse_steps.append((e, worse[0]))
    # the corpus reaches both stops: the certificate, and the exhausted budget
    assert stops == {True, False}
    # budgets that end on a step that made the certificate worse
    assert worse_steps
    for e, k in worse_steps:
        assert not assert_matches_reference(e, k)[0]


def test_exhausted_budget_returns_the_last_iterate_exactly():
    """Out of budget, ``solve_optimal`` returns the last of the
    ``max_iter + 1`` iterates it ran, with that iterate's own certificate,
    bit for bit, and its P_d is the highest the solve reached."""
    exhausted = 0
    for e, _ in dependent_corpus():
        g = e.weighted_states
        for max_iter in (3, 7, 20):
            povm, cert, diag = solve_optimal(e, max_iter=max_iter)
            if diag.converged:
                continue
            exhausted += 1
            iterates = list(islice(_iterates(g, _lsm_factors(e)), max_iter + 1))
            k, wh, x = iterates[-1]
            x_hat, slacks = _slackness(k, wh, x)
            ops = factor_products(k)
            primal = prob_correct(e, Povm(ops))
            want = _certificate(x_hat, primal, np.linalg.eigvalsh(x_hat - g)[:, 0], slacks)
            assert np.array_equal(povm.operators, ops)
            assert np.array_equal(cert.x_hat, x_hat)
            assert cert.feas_margins == want.feas_margins
            assert cert.slack_residuals == want.slack_residuals
            assert (cert.dual_value, cert.gap) == (want.dual_value, want.gap)
            assert (diag.iterations, diag.primal_value) == (max_iter, primal)
            for earlier, _, _ in iterates[:-1]:
                assert diag.primal_value >= prob_correct(e, Povm(factor_products(earlier))) - 1e-12
    assert exhausted >= 80


# rounding in evaluating two detection probabilities and their certified gaps
GAP_ROUNDING = 1e-13


def test_accelerated_loop_agrees_with_the_plain_loop_in_fewer_iterations(monkeypatch):
    """On 120 seeded dependent draws, every accelerated solve converges to a
    certified measurement whose gap lies in [0, n tol] up to rounding and whose
    P_d lies within the two certified gaps of the plain loop's, in at most half the plain loop's summed iterations, and in
    at most 2,066 of them (2,024 measured), so a change to how a mixed step
    is computed cannot quietly cost iterations. The accelerated solves make
    at most 2,753 SVDs, 1% above the 2,726 measured, so a change cannot
    quietly bring back a second SVD on every step past the plain ones. Every
    iterate on the way, the mixed ones included, is a measurement: after the
    start its operators sum to the identity, and P_d never falls from one
    iterate to the next beyond rounding."""
    corpus = [e for e, _ in dependent_corpus(120)]
    assert {(e.dim, e.num_states) for e in corpus} == {
        (n, m) for n in range(2, 7) for m in range(2, 8)
    }
    iterations = {"plain": 0, "accelerated": 0}
    svd_calls = 0
    real_svd = qsd.linalg.svd

    def counted_svd(a):
        nonlocal svd_calls
        svd_calls += 1
        return real_svd(a)

    for e in corpus:
        with monkeypatch.context() as patch:
            patch.setattr(qsd.linalg, "svd", counted_svd)
            povm, cert, diag = solve_optimal(e)
        assert diag.converged
        assert check_povm(povm).passed
        assert certify(e, povm, cert.x_hat).optimal_at(1e-7)
        # Tr x_hat is P_d, so the gap is n max(0, -min margin): at most n tol
        assert -1e-12 <= cert.gap <= e.dim * 1e-8
        _, plain_cert, plain_diag = solve_plain(e)
        assert abs(diag.primal_value - plain_diag.primal_value) <= (
            cert.gap + plain_cert.gap + GAP_ROUNDING
        )
        iterations["plain"] += plain_diag.iterations
        iterations["accelerated"] += diag.iterations

        g = e.weighted_states
        primal = -np.inf
        iterates = islice(_iterates(g, _lsm_factors(e)), diag.iterations + 1)
        for step, (k, wh, x) in enumerate(iterates):
            x_hat, _ = _slackness(k, wh, x)
            if step:
                assert maxabs(factor_products(k).sum(axis=0) - np.eye(e.dim)) <= 1e-12
            assert float(np.trace(x_hat).real) >= primal - 1e-12
            primal = float(np.trace(x_hat).real)
    assert 2 * iterations["accelerated"] <= iterations["plain"]
    assert iterations["accelerated"] <= 2066
    assert svd_calls <= 2753


@pytest.mark.parametrize("priors", ["uniform", (0.85, 0.1, 0.04, 0.01)])
@pytest.mark.parametrize("n", [16, 32, 64])
def test_independent_solve_is_the_plain_loop_bit_for_bit(n, priors):
    """A linearly independent solve stops within the PLAIN_STEPS plain
    steps, before any mixed step, and the Anderson history it keeps on the
    way changes none of its iterates: it returns the plain loop's operators,
    dual operator, margins, residuals and iteration count, bit for bit."""
    e = random_ensemble(n, (n // 4,) * 4, priors=priors, seed=n, require_independent=True)
    povm, cert, diag = solve_optimal(e)
    plain_povm, plain_cert, plain_diag = solve_plain(e)
    assert plain_diag.converged and plain_diag.iterations <= PLAIN_STEPS
    assert diag == plain_diag
    assert np.array_equal(povm.operators, plain_povm.operators)
    assert np.array_equal(cert.x_hat, plain_cert.x_hat)
    assert cert.feas_margins == plain_cert.feas_margins
    assert cert.slack_residuals == plain_cert.slack_residuals


def haar_unitary(n, rng):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def test_pd_is_invariant_under_unitaries_and_relabeling_and_bounded():
    """P_d is the same for the states U rho_i U* (U Haar-random) and for the
    states and outcomes permuted together, within the two certified gaps plus
    rounding, and max_i p_i <= P_d <= 1: guessing the likeliest state
    attains max_i p_i, so the optimum is no lower, and the solved P_d is
    within its certified gap of the optimum."""
    corpus = [e for e, _ in dependent_corpus(120)]
    corpus += [random_ensemble(n, (n // 4,) * 4, seed=n, require_independent=True)
               for n in (16, 32)]
    rng = np.random.default_rng(4040)
    for e in corpus:
        _, cert, diag = solve_optimal(e)
        assert diag.converged
        pd = diag.primal_value
        assert max(e.priors) - cert.gap - GAP_ROUNDING <= pd <= 1.0 + GAP_ROUNDING
        u = haar_unitary(e.dim, rng)
        perm = rng.permutation(e.num_states)
        for other in (Ensemble(e.priors, u @ e.rhos @ u.conj().T),
                      Ensemble(e.priors[perm], e.rhos[perm])):
            _, other_cert, other_diag = solve_optimal(other)
            assert other_diag.converged
            assert abs(other_diag.primal_value - pd) <= cert.gap + other_cert.gap + GAP_ROUNDING


def test_screen_never_exceeds_what_the_residuals_allow():
    """The residuals K_i (K_i* X - W_i*) sum to -(x - x*)/2 up to rounding,
    so on every iterate max|x - x*|/2 is at most m times the largest
    residual plus the screen's rounding allowance. Checked on every iterate
    of each solve and on 20 more past it, where the residuals are down at
    the rounding level that the allowance covers."""
    for e, _ in dependent_corpus(120) + independent_corpus():
        _, _, diag = solve_optimal(e)
        g = e.weighted_states
        for kh, wh, x in islice(_iterates(g, _lsm_factors(e)), diag.iterations + 21):
            _, slacks = _slackness(kh, wh, x)
            bound = e.num_states * float(slacks.max()) + _allowance(kh)
            assert maxabs(x - x.conj().T) / 2 <= bound


def solve_checking_every_iterate(e, tol, max_iter):
    """``solve_optimal`` without the screen: the full certificate, margins
    included, of every iterate until one passes at ``tol``."""
    g = e.weighted_states
    iterates = islice(_iterates(g, _lsm_factors(e)), max_iter + 1)
    for iteration, (kh, wh, x) in enumerate(iterates):
        x_hat, slacks = _slackness(kh, wh, x)
        margins = np.linalg.eigvalsh(x_hat - g)[:, 0]
        converged = float(slacks.max()) <= tol and float(margins.min()) >= -tol
        if converged:
            break
    ops = factor_products(kh)
    return iteration, converged, ops, _certificate(x_hat, prob_correct(e, Povm(ops)), margins, slacks)


@pytest.mark.parametrize("tol", [1e-8, 1e-12, 1e-13])
def test_screened_solve_matches_checking_every_iterate(tol):
    """The screen skips only iterates whose slackness fails, so the solver
    lands on the same iterate, with the same certificate bit for bit, as a
    consumer that forms the full certificate on every iterate, down to
    tolerances near the screen's rounding allowance."""
    stops = set()
    for e, max_iter in dependent_corpus(120) + independent_corpus():
        povm, cert, diag = solve_optimal(e, tol=tol, max_iter=max_iter)
        iteration, converged, ops, want = solve_checking_every_iterate(e, tol, max_iter)
        stops.add(converged)
        assert (diag.iterations, diag.converged) == (iteration, converged)
        assert np.array_equal(povm.operators, ops)
        assert np.array_equal(cert.x_hat, want.x_hat)
        assert cert.feas_margins == want.feas_margins
        assert cert.slack_residuals == want.slack_residuals
        assert (cert.dual_value, cert.gap) == (want.dual_value, want.gap)
    assert True in stops
