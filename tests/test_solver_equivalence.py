"""The stacked solver against the per-operator loop it replaced.

``reference_solve`` and ``reference_certificate`` are the fixed-point loop
and the certificate check written one operator at a time, as the formulas
read. They are the oracle: the batched iterates of ``_iterates``, whose
operators are ``herm(K_i K_i*)`` of its factors, must match the reference's
one by one, and ``solve_optimal`` must stop for the same reason and land on
the same iterate.
"""

from itertools import islice

import numpy as np

from psi_route import numeric_rank

from qsd import Povm, certify, compute_lsm, prob_correct, random_ensemble, solve_optimal
from qsd.linalg import factor_products, hermitian_part, maxabs
from qsd.lsm import _lsm_factors
from qsd.optimal import _certificate, _iterates

MAX_ITER = 300
# The reference's shift of Lambda's eigenvalues when the smallest is below
# this fraction of the largest, as the formula was first transcribed. The
# solver needs none: its update U V* is a POVM for any Lambda.
LAMBDA_FLOOR = 1e-12


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

    Returns the best iterate's operators, dual operator and primal value,
    the iteration count, whether it converged, and the per-iteration
    (primal, dual, min margin, max slack) records.
    """
    g = [hermitian_part(prior * rho) for prior, rho in zip(e.priors, e.rhos)]
    ops = [np.array(op) for op in compute_lsm(e).operators]
    history = []
    best_score = np.inf
    best = None
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

        score = max(-min_margin, max_slack, 0.0)
        if score < best_score:
            best_score = score
            best = ([pi.copy() for pi in ops], x_hat, primal)
        if min_margin >= -tol and max_slack <= tol:
            converged = True
            best = (ops, x_hat, primal)
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
    ops_out, x_out, primal_out = best
    return ops_out, x_out, primal_out, iteration, converged, history


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
    povm, cert, diag = solve_optimal(e, max_iter=max_iter)
    ops, x_hat, primal, iterations, converged, history = reference_solve(e, max_iter=max_iter)
    assert diag.iterations == iterations
    assert diag.converged == converged
    assert abs(diag.primal_value - primal) <= 1e-12
    g = e.weighted_states
    iterates = list(islice(_iterates(g, _lsm_factors(e)), len(history)))
    assert len(iterates) == len(history)
    for (k_k, x_k, slacks_k), (p, d, margin, slack) in zip(iterates, history):
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
    # a budget that ends on a step that made the certificate worse must
    # return an earlier iterate, not the last one
    assert worse_steps
    for e, k in worse_steps:
        assert not assert_matches_reference(e, k)[0]


def scored_iterates(e, count):
    """The first ``count`` iterates of the loop, each with its margins and its
    certificate score ``max(-min margin, max slack, 0)``."""
    g = e.weighted_states
    for k, x_hat, slacks in islice(_iterates(g, _lsm_factors(e)), count):
        margins = np.linalg.eigvalsh(x_hat - g)[:, 0]
        yield max(-float(margins.min()), float(slacks.max()), 0.0), (k, x_hat, margins, slacks)


def test_exhausted_budget_returns_the_best_scored_iterate_exactly():
    """Out of budget, ``solve_optimal`` returns the first iterate of least
    score among the ``max_iter + 1`` it ran, with that iterate's own
    certificate, bit for bit. The budgets include ones that end just after a
    step that raised the score, so the best iterate is not the last."""
    not_last = 0
    for e, _ in dependent_corpus():
        scores = [score for score, _ in scored_iterates(e, 31)]
        rises = [k for k in range(1, len(scores)) if scores[k] > scores[k - 1]]
        for max_iter in (10, *rises[:1]):
            povm, cert, diag = solve_optimal(e, max_iter=max_iter)
            if diag.converged:
                continue
            best_score = np.inf
            for index, (score, it) in enumerate(scored_iterates(e, max_iter + 1)):
                if score < best_score:
                    best_score, best, best_index = score, it, index
            not_last += best_index < max_iter
            k, x_hat, margins, slacks = best
            ops = factor_products(k)
            primal = prob_correct(e, Povm(ops))
            want = _certificate(x_hat, primal, margins, slacks)
            assert np.array_equal(povm.operators, ops)
            assert np.array_equal(cert.x_hat, x_hat)
            assert cert.feas_margins == want.feas_margins
            assert cert.slack_residuals == want.slack_residuals
            assert (cert.dual_value, cert.gap) == (want.dual_value, want.gap)
            assert (diag.iterations, diag.primal_value) == (max_iter, primal)
    assert not_last >= 3
