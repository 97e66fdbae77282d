from collections import Counter
from itertools import islice

import numpy as np
import pytest

from conftest import ket, projector, pure_ensemble, trine_vectors

import qsd.linalg
import qsd.optimal
from qsd import (
    Certificate,
    Ensemble,
    Povm,
    certify,
    check_povm,
    compute_lsm,
    helstrom_binary,
    is_linearly_independent,
    make_povm,
    prob_correct,
    random_ensemble,
    solve_optimal,
    validate,
    vnm_report,
)
from qsd.linalg import PSD_RANK_REL_TOL, factor_products, maxabs
from qsd.lsm import _lsm_factors, _weighted_factors
from qsd.optimal import PLAIN_STEPS, _certificate, _iterates, _slackness

# 1/2 + sqrt(2)/4, the two-state optimum for |0>, |+> with equal priors
ZERO_PLUS_OPTIMUM = 0.8535533905932737


def binary_corpus(count):
    cfgs = [
        (2, (1, 1), False),
        (2, (2, 2), False),
        (2, (2, 1), False),
        (3, (2, 2), False),
        (3, (3, 3), False),
        (3, (1, 2), True),
        (4, (2, 2), True),
        (4, (3, 3), False),
        (4, (4, 4), False),
        (4, (1, 3), True),
    ]
    prior_cycle = [0.5, 0.7, 0.9, 0.3, 0.15]
    out = []
    for k in range(count):
        dim, ranks, indep = cfgs[k % len(cfgs)]
        p1 = prior_cycle[k % len(prior_cycle)]
        out.append(
            random_ensemble(
                dim, ranks, priors=(p1, 1 - p1), seed=3000 + k,
                require_independent=indep,
            )
        )
    return out


def test_prob_correct_perfect_discrimination(orthonormal_pair, orthonormal_pair_povm):
    assert abs(prob_correct(orthonormal_pair, orthonormal_pair_povm) - 1.0) < 1e-12


def test_prob_correct_always_guess_first(zero_plus):
    povm = make_povm([np.eye(2), np.zeros((2, 2))])
    assert abs(prob_correct(zero_plus, povm) - 0.5) < 1e-12
    e = pure_ensemble((0.7, 0.3), (ket(1, 0), ket(1, 1)))
    assert abs(prob_correct(e, povm) - 0.7) < 1e-12


def test_prob_correct_mismatches(zero_plus, orthonormal_pair_povm):
    with pytest.raises(ValueError, match=r"ensemble dim 3 != povm dim 2"):
        prob_correct(
            pure_ensemble((1.0,), (ket(1, 0, 0),)),
            orthonormal_pair_povm,
        )
    with pytest.raises(ValueError, match=r"2 states vs 1 outcomes"):
        prob_correct(zero_plus, make_povm([np.eye(2)]))


def test_helstrom_orthogonal_pair(orthonormal_pair):
    assert abs(helstrom_binary(orthonormal_pair) - 1.0) < 1e-12


def test_helstrom_identical_states():
    rho = np.eye(2, dtype=complex) / 2
    e = pure_ensemble((0.7, 0.3), (ket(1, 0), ket(1, 0)))
    assert abs(helstrom_binary(e) - 0.7) < 1e-12
    from qsd import Ensemble

    e2 = Ensemble([0.7, 0.3], [rho, rho])
    assert abs(helstrom_binary(e2) - 0.7) < 1e-12


def test_helstrom_zero_plus(zero_plus):
    assert abs(helstrom_binary(zero_plus) - ZERO_PLUS_OPTIMUM) < 1e-12


def test_helstrom_rejects_non_binary(trine):
    with pytest.raises(ValueError, match=r"need exactly 2 states, got 3"):
        helstrom_binary(trine)


def test_solve_orthogonal_pair(orthonormal_pair):
    povm, cert, diag = solve_optimal(orthonormal_pair)
    assert diag.converged
    assert abs(diag.primal_value - 1.0) < 1e-10
    assert abs(cert.dual_value - 1.0) < 1e-10
    assert maxabs(povm.operators[0] - projector(ket(1, 0))) < 1e-8
    assert maxabs(povm.operators[1] - projector(ket(0, 1))) < 1e-8


def test_solve_zero_plus_matches_helstrom(zero_plus):
    povm, cert, diag = solve_optimal(zero_plus)
    assert diag.converged
    assert abs(diag.primal_value - helstrom_binary(zero_plus)) <= 1e-8
    assert abs(prob_correct(zero_plus, povm) - ZERO_PLUS_OPTIMUM) <= 1e-8


def test_trine_hand_certificate_then_solver(trine):
    # the hand-checkable optimum: operators (2/3)|phi_k><phi_k| with dual I/3
    povm = make_povm([(2 / 3) * projector(v) for v in trine_vectors()])
    cert = certify(trine, povm, np.eye(2) / 3)
    assert cert.optimal_at(1e-12)
    assert min(cert.feas_margins) >= -1e-15
    assert max(cert.slack_residuals) <= 1e-15
    assert abs(cert.dual_value - 2 / 3) < 1e-12
    assert abs(prob_correct(trine, povm) - 2 / 3) < 1e-12
    # only now trust that the solver should land on 2/3
    solved_povm, solved_cert, diag = solve_optimal(trine)
    assert diag.converged
    assert abs(diag.primal_value - 2 / 3) <= 1e-7
    for op, v in zip(solved_povm.operators, trine_vectors()):
        assert maxabs(op - (2 / 3) * projector(v)) <= 1e-9


def test_certify_orthogonal_pair(orthonormal_pair, orthonormal_pair_povm):
    cert = certify(orthonormal_pair, orthonormal_pair_povm, np.diag([0.5, 0.5]))
    assert cert.optimal_at(1e-12)
    assert max(cert.slack_residuals) == 0.0


def test_certificate_verdicts_fail_on_nan_in_any_place():
    """NaN fails every comparison, so a NaN margin or residual fails its
    verdict wherever it stands, not only in first place."""
    nan = float("nan")
    for first, second in ((0.0, nan), (nan, 0.0)):
        cert = Certificate(x_hat=np.eye(2) / 2, dual_value=1.0, gap=0.0,
                           feas_margins=(first, second), slack_residuals=(0.0, 0.0))
        assert not cert.feasible_at(1e-7) and cert.slack_at(1e-7)
        assert not cert.optimal_at(1e-7)
        cert = Certificate(x_hat=np.eye(2) / 2, dual_value=1.0, gap=0.0,
                           feas_margins=(0.0, 0.0), slack_residuals=(first, second))
        assert cert.feasible_at(1e-7) and not cert.slack_at(1e-7)
        assert not cert.optimal_at(1e-7)


def test_certify_zero_dual_is_infeasible(orthonormal_pair, orthonormal_pair_povm):
    cert = certify(orthonormal_pair, orthonormal_pair_povm, np.zeros((2, 2)))
    assert not cert.feasible_at(1e-7)
    assert abs(min(cert.feas_margins) + 0.5) < 1e-12


def test_certify_dim_mismatch(orthonormal_pair, orthonormal_pair_povm):
    with pytest.raises(ValueError, match=r"dual operator has shape \(3, 3\), expected \(2, 2\)"):
        certify(orthonormal_pair, orthonormal_pair_povm, np.zeros((3, 3)))
    with pytest.raises(ValueError, match=r"expected a 2-D matrix, got ndim=1"):
        certify(orthonormal_pair, orthonormal_pair_povm, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_certify_rejects_a_dual_operator_that_is_not_finite(
    orthonormal_pair, orthonormal_pair_povm, bad
):
    """A NaN or infinite entry is bad input, refused as such at the boundary
    rather than failing inside the eigenvalue solver or giving NaN margins."""
    x_hat = np.diag([0.5, 0.5])
    x_hat[0, 1] = bad
    with pytest.raises(ValueError) as exc_info:
        certify(orthonormal_pair, orthonormal_pair_povm, x_hat)
    assert not isinstance(exc_info.value, np.linalg.LinAlgError)


def test_solver_certificates_on_random_independent():
    shapes = [(2, (1, 1)), (3, (2, 1)), (4, (2, 2)), (5, (3, 1, 1)), (6, (2, 2, 2))]
    for k in range(25):
        dim, ranks = shapes[k % len(shapes)]
        e = random_ensemble(dim, ranks, seed=4000 + k, require_independent=True)
        povm, cert, diag = solve_optimal(e)
        assert diag.converged
        # certificate recomputed from returned operators stays clean
        recheck = certify(e, povm, cert.x_hat)
        assert recheck.optimal_at(1e-7)
        assert abs(recheck.dual_value - prob_correct(e, povm)) <= 1e-6
        # better than blind guessing
        assert diag.primal_value >= float(e.priors.max()) - 1e-9


def test_work_per_solve(monkeypatch):
    """The states are decomposed once per solve, and validation, the state
    ranks and the least-squares factors read that decomposition: eigh runs
    once for the states and once for rho_bar, whose one decomposition gives
    the span, the factors' cut and, from n = 32 on, the start's Gram
    decomposition. svd runs once to normalize the least-squares factors,
    once per plain update and twice per mixed one; past the plain steps,
    every other step is mixed, here the 3 at steps 8, 10 and 12. A mixed
    step takes its combination from one solve of the small Gram system and
    never from lstsq. eigvalsh runs once, for the margins of the
    converging iterate, the only iterate whose slackness passes here. The
    slackness residuals are formed only on iterates that the screen on
    x - x* leaves open: 2 of the 5 iterates of the independent solve and 4
    of the 14 of the dependent one. A solve that exhausts its budget runs
    its loop once and takes margins and residuals once more, for the last
    iterate, which it returns; the screen rules out all 6 of its iterates
    here.

    From ``_N_GRAM`` = 32 columns on, the polar step takes the Gram route:
    one eigh of the n x n Gram matrix in place of each svd, so an
    independent solve at n = 32 makes no svd at all, and the start reads
    rho_bar's eigh, so it takes none of its own. Where rho_bar is
    conditioned past the guard, as with priors down to 1e-8, the start
    takes the svd straight away, and a loop step whose Gram matrix is past
    the guard keeps the svd after its eigh. From ``_N_CHOLESKY`` = 64 on,
    the states' eigh is an eigvalsh, and the factors come from a pivoted
    Cholesky, which calls no LAPACK routine: validation takes that eigvalsh
    and rho_bar's eigh, and nothing else, and an independent solve at
    n = 64 takes eigvalsh twice, once for the states and once for the
    margins, and eigh once for rho_bar and once per step.

    The calls are counted at the kernel's entry points in ``qsd.linalg``. On
    numpy 2, where the kernel calls numpy's gufuncs, a solve calls no public
    ``np.linalg`` decomposition or solver."""
    calls = Counter()
    for name in ("eigh", "eigvalsh", "svd", "solve"):
        def counted(*args, _real=getattr(qsd.linalg, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(qsd.linalg, name, counted)
    public = Counter()
    for name in ("eigh", "eigvalsh", "svd", "lstsq", "solve"):
        def counted_public(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            public[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted_public)

    def counted_slacks(*args, _real=qsd.optimal._slacks):
        calls["_slacks"] += 1
        return _real(*args)

    monkeypatch.setattr(qsd.optimal, "_slacks", counted_slacks)

    def li():
        return random_ensemble(16, (4,) * 4, seed=0, require_independent=True)

    calls.clear()
    _, _, diag = solve_optimal(li())
    assert diag.converged and 0 < diag.iterations <= PLAIN_STEPS
    assert calls == {"eigh": 2, "svd": 1 + diag.iterations, "eigvalsh": 1, "_slacks": 2}
    # past the plain steps, a mixed step takes a second svd to normalize
    # the mixed factors, and one solve for its combination
    calls.clear()
    _, _, diag = solve_optimal(random_ensemble(3, (2, 2, 1, 2), seed=1))
    assert diag.converged and diag.iterations == 13
    assert calls == {"eigh": 2, "svd": 17, "eigvalsh": 1, "solve": 3, "_slacks": 4}
    calls.clear()
    _, _, diag = solve_optimal(random_ensemble(3, (2, 2, 1, 2), seed=1), max_iter=5)
    assert not diag.converged and diag.iterations == 5
    assert calls == {"eigh": 2, "svd": 1 + 5, "eigvalsh": 1, "_slacks": 1}
    calls.clear()
    compute_lsm(li())
    assert calls == {"eigh": 2, "svd": 1}
    calls.clear()
    _, _, diag = solve_optimal(random_ensemble(32, (8,) * 4, seed=0, require_independent=True))
    assert diag.converged and diag.iterations == 4
    assert calls == {"eigh": 2 + 4, "eigvalsh": 1, "_slacks": 1}
    calls.clear()
    skewed = (0.99999997, 1e-8, 1e-8, 1e-8)
    _, _, diag = solve_optimal(random_ensemble(32, (8,) * 4, priors=skewed, seed=3, require_independent=True))
    assert diag.converged and diag.iterations == 1
    assert calls == {"eigh": 2 + 1, "svd": 1 + 1, "eigvalsh": 1, "_slacks": 1}
    # from n = 64 on the states are decomposed for their eigenvalues only,
    # and validation reads nothing else of them
    calls.clear()
    validate(random_ensemble(64, (16,) * 4, seed=0, require_independent=True))
    assert calls == {"eigvalsh": 1, "eigh": 1}
    calls.clear()
    _, _, diag = solve_optimal(random_ensemble(64, (16,) * 4, seed=0, require_independent=True))
    assert diag.converged and diag.iterations == 4
    assert calls == {"eigh": 1 + 4, "eigvalsh": 2, "_slacks": 2}
    if int(np.__version__.split(".")[0]) >= 2:
        assert not public


def test_degenerate_mixing_history_keeps_every_iterate_a_measurement(monkeypatch):
    """Run 200 steps past convergence, where the differences that a mixed
    step combines are at rounding level, or exactly zero for orthonormal
    states, so its Gram system is near singular or singular. Nothing may
    raise: a singular system falls back to the plain step, every iterate sums
    to the identity and P_d never falls beyond rounding."""
    singular = []
    real_solve = qsd.linalg.solve

    def counted(a, b):
        try:
            return real_solve(a, b)
        except np.linalg.LinAlgError:
            singular.append(a)
            raise

    monkeypatch.setattr(qsd.linalg, "solve", counted)
    gu, _ = geometrically_uniform(4, 7, seed=7047)
    li = random_ensemble(16, (4,) * 4, seed=0, require_independent=True)
    orthonormal = pure_ensemble((0.5, 0.5), (ket(1, 0), ket(0, 1)))
    for e in (gu, li, orthonormal):
        _, _, diag = solve_optimal(e)
        assert diag.converged
        singular.clear()
        primal = -np.inf
        iterates = _iterates(e.weighted_states, _lsm_factors(e))
        for k, wh, x in islice(iterates, diag.iterations + 201):
            x_hat, _ = _slackness(k, wh, x)
            assert maxabs(factor_products(k).sum(axis=0) - np.eye(e.dim)) <= 1e-12
            assert float(np.trace(x_hat).real) >= primal - 1e-12
            primal = float(np.trace(x_hat).real)
        # the orthonormal pair is a fixed point in exact arithmetic, so its
        # differences vanish and every Gram system is singular
        assert bool(singular) == (e is orthonormal)


def test_update_keeps_the_null_space_of_projective_iterates():
    """Skewed priors make Lambda ill-conditioned. The optimal operators of an
    LI ensemble must still be projectors of the state ranks, with null
    eigenvalues at rounding level: the update S (G_i Pi_i G_i) S, whose
    rounding |Lambda^{-1/2}|^2 amplifies, leaves about 1e-12 here."""
    for n in (16, 32):
        for seed in range(3):
            e = random_ensemble(n, (n // 4,) * 4, priors=(0.97, 0.01, 0.01, 0.01),
                                seed=seed, require_independent=True)
            povm, _, diag = solve_optimal(e)
            assert diag.converged
            null = np.linalg.eigvalsh(povm.operators)[:, : n - n // 4]
            assert np.abs(null).max() <= 1e-14
            assert povm.ranks == (n // 4,) * 4


def skewed_pure_pair(eps):
    """|0> and |+> with priors 1 - eps and eps: Lambda's weak direction is
    about eps^2 of its strong one."""
    return pure_ensemble((1 - eps, eps), (ket(1, 0), ket(1, 1)))


def skewed_independent_draw():
    """Four rank-2 states spanning n = 8, three of them with prior 1e-8."""
    return random_ensemble(8, (2,) * 4, priors=(1 - 3e-8, 1e-8, 1e-8, 1e-8), seed=3,
                           require_independent=True)


SKEWED_EPS = (1e-7, 1e-8, 1e-9)


def test_every_factored_iterate_resolves_the_identity():
    """The loop carries Pi_i = K_i K_i*; every iterate's operators sum to the
    identity, so each one is a measurement, also where Lambda or rho_bar is
    near singular. The start, the least-squares measurement, is one too."""
    ensembles = [
        random_ensemble(n, (n // 4,) * 4, priors=(0.7, 0.1, 0.1, 0.1), seed=n,
                        require_independent=True)
        for n in (16, 32, 64)
    ]
    for j in range(60):
        rng = np.random.default_rng([4300, j])
        n, m = 2 + j % 5, 2 + (j // 5) % 6
        e = random_ensemble(n, rng.integers(1, n + 1, size=m), seed=j)
        if e.span[1] == n:
            ensembles.append(e)
    assert len(ensembles) > 50
    for e in ensembles:
        for kh, _, _ in islice(_iterates(e.weighted_states, _lsm_factors(e)), 50):
            assert kh.shape[::2] == (e.num_states, e.dim)
            assert maxabs(factor_products(kh).sum(axis=0) - np.eye(e.dim)) <= 1e-12
    skewed = [skewed_pure_pair(eps) for eps in SKEWED_EPS] + [skewed_independent_draw()]
    for e in skewed:
        for k, _, _ in islice(_iterates(e.weighted_states, _lsm_factors(e)), 50):
            assert maxabs(factor_products(k).sum(axis=0) - np.eye(e.dim)) <= 1e-12
    assert check_povm(compute_lsm(skewed_independent_draw())).passed


def test_states_near_the_rank_cut_converge_and_certify():
    """States with eigenvalues from 1e-14 to 1e-8 where an independent
    ensemble has none: the factors keep an eigenvalue at or above the rank
    cut and drop one below it, and the loop still runs against the true
    weighted states, so every solve converges to a certified POVM."""
    full_rank = set()
    for j in range(40):
        rng = np.random.default_rng([7100, j])
        n = (4, 8, 12, 16)[j % 4]
        e = random_ensemble(n, (n // 4,) * 4, seed=int(rng.integers(2**31)),
                            require_independent=True)
        eps = 10.0 ** rng.uniform(-14, -8)
        rhos = []
        for rho in e.rhos:
            null = np.linalg.eigh(rho)[1][:, : n - n // 4]
            rho = rho + eps * null @ null.conj().T
            rhos.append(rho / np.trace(rho).real)
        e = Ensemble(e.priors, rhos)
        full_rank.add(int(e.state_spectra[2].max()) == n)
        povm, cert, diag = solve_optimal(e)
        assert diag.converged
        assert certify(e, povm, cert.x_hat).optimal_at(1e-7)
        assert check_povm(povm).passed
    assert full_rank == {True, False}


def test_sub_cut_eigenvalues_that_rho_bar_counts_stay_in_the_factors():
    """Each state's third eigenvalue, 9e-11 of its largest, is below its
    rank cut, so both states have rank 1; but rho_bar's third eigenvalue is
    above its own cut, so the states span the space. The factors keep those
    eigenvalues, or the measurement could not resolve the identity."""
    eps = 9e-11
    e = Ensemble([0.5, 0.5], [np.diag([1 - eps, 0, eps]), np.diag([0, 1 - eps, eps])])
    assert validate(e).passed and e.state_spectra[2].tolist() == [1, 1]
    widths = np.count_nonzero(np.abs(_weighted_factors(e)).max(axis=2), axis=1)
    assert widths.tolist() == [2, 2]
    assert check_povm(compute_lsm(e)).passed
    povm, cert, diag = solve_optimal(e)
    assert diag.converged
    assert check_povm(povm).passed
    assert certify(e, povm, cert.x_hat).optimal_at(1e-7)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mid_size_dependent_solve_on_the_gram_route(monkeypatch, seed):
    """Six rank-8 states in C^32 are linearly dependent, so the solve runs
    past the plain steps into mixed ones, every polar step on the Gram
    route. It certifies at 1e-7, its operators pass check_povm, and it takes
    no more than a tenth more iterations than the same solve with every
    polar step on the SVD (29, 43 and 45 on the SVD route, and as many on
    the Gram route, with numpy 2.4)."""
    e = random_ensemble(32, (8,) * 6, seed=seed)
    svd_calls = []
    monkeypatch.setattr(qsd.linalg, "svd", lambda *args: svd_calls.append(args))
    povm, cert, diag = solve_optimal(e)
    assert not svd_calls
    monkeypatch.undo()
    assert diag.converged and diag.iterations > PLAIN_STEPS
    assert certify(e, povm, cert.x_hat).optimal_at(1e-7)
    assert check_povm(povm).passed
    monkeypatch.setattr(qsd.linalg, "_N_GRAM", e.dim + 1)
    _, _, svd_diag = solve_optimal(e)
    assert svd_diag.converged
    assert diag.iterations <= svd_diag.iterations + svd_diag.iterations // 10


def test_ill_conditioned_solve_resolves_the_identity():
    """rho_bar's condition number is about 5e4 on the first draw, Lambda's
    larger still; inverting Lambda through its eigenvalues leaves these
    operators 2e-8 short of the identity. On the skewed pairs and the skewed
    independent draw, Lambda's weak directions are below 1e-12 of its strong
    one, so any floor on its eigenvalues would leave the operators short by
    up to 1. The polar-factor update keeps all of them at rounding level."""
    priors = (0.008429904443290398, 0.5624776270942011, 0.4290924684625085)
    ensembles = [random_ensemble(5, (2, 2, 1), priors=priors, seed=354878086)]
    ensembles += [skewed_pure_pair(eps) for eps in SKEWED_EPS]
    ensembles.append(skewed_independent_draw())
    for e in ensembles:
        povm, cert, diag = solve_optimal(e)
        assert diag.converged
        assert check_povm(povm).passed
        assert maxabs(povm.operators.sum(axis=0) - np.eye(e.dim)) <= 1e-12
        assert certify(e, povm, cert.x_hat).optimal_at(1e-7)
        if e.num_states == 2:
            assert abs(diag.primal_value - helstrom_binary(e)) <= 1e-12
    report = vnm_report(e, povm)  # the last one, the skewed independent draw
    assert report.is_von_neumann
    assert all(pair.equal for pair in report.rank_pairs)


def test_weak_duality_on_iterate_history():
    e = pure_ensemble((0.7, 0.3), (ket(1, 0), ket(1, 1)))
    povm, cert, diag = solve_optimal(e)
    assert diag.converged and diag.iterations > 0
    optimum = helstrom_binary(e)
    # every iterate's certificate bounds the optimum from above
    g = e.weighted_states
    iterates = _iterates(g, _lsm_factors(e))
    for k, wh, x in islice(iterates, diag.iterations + 1):
        x_hat, slacks = _slackness(k, wh, x)
        primal = prob_correct(e, Povm(factor_products(k)))
        margins = np.linalg.eigvalsh(x_hat - g)[:, 0]
        assert primal <= optimum + 1e-12
        assert primal + _certificate(x_hat, primal, margins, slacks).gap >= optimum - 1e-12
    assert -1e-12 <= cert.gap <= e.dim * 1e-8
    assert diag.primal_value + cert.gap >= optimum - 1e-12


def test_certified_gap_bounds_the_optimum_for_any_hermitian_x():
    rng = np.random.default_rng(5150)
    for e in binary_corpus(20):
        optimum = helstrom_binary(e)
        for povm in (solve_optimal(e)[0], compute_lsm(e)):
            pd = prob_correct(e, povm)
            for scale in (0.01, 0.1, 1.0):
                z = rng.standard_normal((e.dim, e.dim)) + 1j * rng.standard_normal((e.dim, e.dim))
                x = scale * (z + z.conj().T) / 2
                assert pd + certify(e, povm, x).gap >= optimum - 1e-12


def geometrically_uniform(n, m, seed):
    """m equiprobable pure states ``psi_i = U^i psi_0`` in dimension n, where
    U has n distinct m-th roots of unity as eigenvalues, in a random basis."""
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.choice(m, size=n, replace=False) / m)
    basis = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    psi0 = ket(*(rng.standard_normal(n) + 1j * rng.standard_normal(n)))
    vectors = np.array([basis @ (phases**i * psi0) for i in range(m)])
    return pure_ensemble((1 / m,) * m, vectors), vectors


@pytest.mark.parametrize("n, m", [(2, 2), (3, 3), (2, 3), (3, 5), (4, 7)])
def test_geometrically_uniform_states_match_closed_form(n, m):
    # the least-squares measurement is optimal, with
    # P_d = ((1/m) sum_k sqrt(lambda_k))^2 over the Gram matrix's eigenvalues
    # (Ban, Kurokawa, Momose & Hirota 1997; Eldar & Forney 2001); eigenvalues
    # at roundoff level, which m > n leaves, are dropped at the rank cut
    e, kets = geometrically_uniform(n, m, seed=7000 + 10 * n + m)
    lam = np.linalg.eigvalsh(kets.conj() @ kets.T)
    lam = lam[lam >= PSD_RANK_REL_TOL * lam[-1]]
    oracle = (np.sqrt(lam).sum() / m) ** 2
    povm, cert, diag = solve_optimal(e)
    assert diag.converged and diag.iterations == 0
    assert abs(diag.primal_value - oracle) <= 1e-12
    assert abs(prob_correct(e, compute_lsm(e)) - oracle) <= 1e-12


def test_binary_agreement_sample():
    for e in binary_corpus(20):
        povm, cert, diag = solve_optimal(e)
        assert diag.converged
        assert abs(diag.primal_value - helstrom_binary(e)) <= 1e-7


def test_rank_bound_holds_everywhere():
    for e in binary_corpus(20):
        povm, _, _ = solve_optimal(e)
        for pair in vnm_report(e, povm).rank_pairs:
            assert pair.bounded


def test_lsm_never_beats_optimal():
    shapes = [(2, (1, 1)), (3, (2, 2)), (4, (2, 1, 1))]
    for k in range(15):
        dim, ranks = shapes[k % len(shapes)]
        indep = sum(ranks) == dim
        e = random_ensemble(dim, ranks, seed=4500 + k, require_independent=indep)
        lsm_pd = prob_correct(e, compute_lsm(e))
        _, _, diag = solve_optimal(e)
        assert lsm_pd <= diag.primal_value + 1e-9


def test_not_converged_returns_last_iterate():
    e = pure_ensemble((0.7, 0.3), (ket(1, 0), ket(1, 1)))
    povm, cert, diag = solve_optimal(e, max_iter=1)
    assert not diag.converged
    assert diag.iterations == 1
    assert len(povm.operators) == 2
    # the last iterate is still a near-POVM and carries meaningful diagnostics
    assert maxabs(sum(povm.operators) - np.eye(2)) < 1e-8
    assert not cert.optimal_at(1e-12)


@pytest.mark.parametrize(
    "tol", [np.inf, np.nan, 0.0, -1e-8, -np.inf, True, False, "1e-8", None, 1j])
def test_solve_rejects_tolerances_that_prove_nothing(zero_plus, tol):
    """Every function that judges at a tolerance refuses one that proves
    nothing. At ``tol=True``, read as 1, operators that sum to 1.2 I would
    pass as a POVM and as a Von Neumann measurement, and a certificate with
    margins of -0.2 and residuals of 0.15 would read as optimal."""
    with pytest.raises(ValueError):
        solve_optimal(zero_plus, tol=tol)
    over = Povm([0.6 * np.eye(2), 0.6 * np.eye(2)])
    cert = Certificate(dual_value=1.0, gap=0.0, feas_margins=(-0.2, -0.2),
                       slack_residuals=(0.15, 0.15), x_hat=np.eye(2))
    judges = (
        lambda: check_povm(over, tol=tol),
        lambda: vnm_report(zero_plus, over, tol=tol),
        lambda: cert.feasible_at(tol),
        lambda: cert.slack_at(tol),
        lambda: cert.optimal_at(tol),
    )
    for judge in judges:
        with pytest.raises(ValueError):
            judge()


def test_solve_rejects_negative_budget(zero_plus):
    """A budget must be an integer of at least 0: a bool is not read as 0
    or 1, a float not truncated and a string not parsed. A numpy integer is
    an integer, and an exhausted budget is reported as a Python int."""
    for max_iter in (-1, True, False, 1e4, 2.5, "5"):
        with pytest.raises(ValueError):
            solve_optimal(zero_plus, max_iter=max_iter)
    _, _, diag = solve_optimal(zero_plus, max_iter=0)
    assert diag.iterations == 0
    skewed = pure_ensemble((0.7, 0.3), (ket(1, 0), ket(1, 1)))
    _, _, diag = solve_optimal(skewed, max_iter=np.int64(1))
    assert not diag.converged and diag.iterations == 1 and type(diag.iterations) is int


def test_lsm_is_within_the_square_of_the_optimum():
    """Barnum & Knill: the least-squares (pretty good) measurement detects
    with probability at least the square of the optimum, P_opt^2 <= P_LSM <=
    P_opt, on seeded spanning linearly dependent ensembles of 3 to 7 states.
    P_opt is the certified upper bound on the optimum, the detection
    probability of a converged solve plus its gap, so a loose ``tol`` keeps
    the check rigorous."""
    checked = 0
    for k in range(400):
        rng = np.random.default_rng([4242, k])
        n, m = 2 + k % 5, 3 + (k // 5) % 5
        ranks = [int(r) for r in rng.integers(1, n + 1, size=m)]
        priors = "uniform"
        if k % 2:
            p = rng.dirichlet(np.ones(m))
            priors = (*p[:-1], 1.0 - p[:-1].sum())
        e = random_ensemble(n, ranks, priors=priors, seed=int(rng.integers(2**31)))
        if not validate(e).passed or is_linearly_independent(e)[0]:
            continue
        _, cert, diag = solve_optimal(e, tol=1e-6, max_iter=1000)
        if not diag.converged:
            continue
        p_opt = diag.primal_value + cert.gap
        assert p_opt**2 <= prob_correct(e, compute_lsm(e)) <= p_opt
        checked += 1
        if checked == 200:
            break
    assert checked == 200
