import numpy as np
import pytest

from conftest import projector, trine_vectors
from psi_route import numeric_rank

from qsd import (
    check_povm,
    compute_lsm,
    is_linearly_independent,
    make_povm,
    random_ensemble,
    solve_optimal,
    vnm_report,
)
from qsd.linalg import maxabs


def test_check_povm_projector_pair(orthonormal_pair_povm):
    result = check_povm(orthonormal_pair_povm, 1e-8)
    assert result.passed
    assert result.completeness_residual < 1e-12
    assert min(result.psd_margins) >= -1e-12


def test_check_povm_identity_resolution():
    result = check_povm(make_povm([np.eye(2)]), 1e-8)
    assert result.passed


def test_check_povm_incomplete():
    p = make_povm([0.5 * np.eye(2), 0.25 * np.eye(2)])
    result = check_povm(p, 1e-8)
    assert not result.passed
    assert abs(result.completeness_residual - 0.25) < 1e-12


def test_is_projective_orthogonal_projectors(orthonormal_pair, orthonormal_pair_povm):
    report = vnm_report(orthonormal_pair, orthonormal_pair_povm, 1e-6)
    assert report.is_von_neumann
    assert max(report.idempotency_residuals) <= 1e-12
    assert float(report.orthogonality_residuals.max()) <= 1e-12


def test_is_projective_trine_povm_fails(trine):
    # (2/3) eigenvalue: (2/3)^2 - 2/3 = -2/9 on the spectrum, so the first
    # operator's entrywise residual is exactly 2/9 and all exceed 1e-3
    povm = make_povm([(2 / 3) * projector(v) for v in trine_vectors()])
    report = vnm_report(trine, povm, 1e-6)
    assert not report.is_von_neumann
    assert abs(report.idempotency_residuals[0] - 2 / 9) < 1e-12
    assert abs(max(report.idempotency_residuals) - 2 / 9) < 1e-12
    assert min(report.idempotency_residuals) > 1e-3


def test_is_projective_lsm_of_random_independent():
    e = random_ensemble(5, (2, 2, 1), seed=61, require_independent=True)
    report = vnm_report(e, compute_lsm(e), 1e-7)
    assert report.is_von_neumann


def test_rank_profile_orthogonal_pair(orthonormal_pair, orthonormal_pair_povm):
    pairs = vnm_report(orthonormal_pair, orthonormal_pair_povm).rank_pairs
    assert pairs == ((1, 1, True, True), (1, 1, True, True))


def test_rank_profile_independent_mixed():
    e = random_ensemble(4, (2, 2), seed=17, require_independent=True)
    povm, _, diag = solve_optimal(e)
    assert diag.converged
    assert all(pair.equal for pair in vnm_report(e, povm).rank_pairs)


def test_rank_profile_trine_optimum(trine):
    povm, _, diag = solve_optimal(trine)
    assert diag.converged
    report = vnm_report(trine, povm, 1e-6)
    pairs = report.rank_pairs
    # rank equality can hold even though the measurement is not projective
    assert all(pair == (1, 1, True, True) for pair in pairs)
    assert not report.is_von_neumann


def test_rank_profile_reads_the_factor_widths():
    """vnm_report's state ranks come from the one decomposition of the
    states that also sets the widths of the solver's factors."""
    ensembles = [random_ensemble(n, (n // 4,) * 4, seed=n, require_independent=True)
                 for n in (16, 32, 64, 96, 128)]
    k = 0
    while len(ensembles) < 205:
        rng = np.random.default_rng([3300, k])
        n, m = 2 + k % 5, 2 + (k // 5) % 6
        e = random_ensemble(n, rng.integers(1, n + 1, size=m), seed=k)
        k += 1
        if e.span[1] == n:
            ensembles.append(e)
    for e in ensembles:
        f = e._weighted_factors
        widths = np.count_nonzero(np.abs(f).max(axis=2), axis=1).tolist()
        guess = make_povm([np.eye(e.dim) / e.num_states] * e.num_states)
        assert [pair.state_rank for pair in vnm_report(e, guess).rank_pairs] == widths
        assert is_linearly_independent(e)[2] == sum(widths)


def test_rank_profile_count_mismatch(trine, orthonormal_pair_povm):
    with pytest.raises(ValueError, match=r"3 states vs 2 outcomes"):
        vnm_report(trine, orthonormal_pair_povm)


def test_direct_sum_rank_of_optimal_measurements():
    shapes = [(3, (2, 1)), (4, (1, 1, 2)), (6, (2, 2, 2))]
    for k in range(9):
        dim, ranks = shapes[k % len(shapes)]
        e = random_ensemble(dim, ranks, seed=2200 + k, require_independent=True)
        povm, _, diag = solve_optimal(e)
        assert diag.converged
        assert sum(povm.ranks) == dim
    # the trine is a complete rank-one POVM in dimension 2 whose ranges
    # are not a direct sum: its ranks add up to 3
    trine = make_povm([projector(v) * 2 / 3 for v in trine_vectors()])
    assert check_povm(trine).passed
    assert sum(trine.ranks) == 3


def test_pure_state_specialization_rank_one():
    # independent rank-one ensembles get rank-one optimal operators
    for k in range(6):
        dim = 2 + (k % 3)
        e = random_ensemble(dim, (1,) * dim, seed=2600 + k,
                            require_independent=True)
        povm, _, diag = solve_optimal(e)
        assert diag.converged
        assert all(t == 1 for t in povm.ranks)


def test_vnm_report_combines_rank_pairs(orthonormal_pair, orthonormal_pair_povm):
    report = vnm_report(orthonormal_pair, orthonormal_pair_povm, 1e-6)
    assert report.is_von_neumann
    assert report.rank_pairs == ((1, 1, True, True), (1, 1, True, True))


def test_batched_checks_match_per_operator_loops():
    # the checks written one operator at a time, as the formulas read
    for k in range(6):
        e = random_ensemble(4, (2, 3, 1, 2), seed=2700 + k)
        p = compute_lsm(e)
        ops = list(p.operators)
        check = check_povm(p)
        margins = [np.linalg.eigvalsh((op + op.conj().T) / 2)[0] for op in ops]
        assert np.allclose(check.psd_margins, margins, rtol=0, atol=1e-14)
        assert abs(check.completeness_residual - maxabs(sum(ops) - np.eye(4))) <= 1e-14
        report = vnm_report(e, p)
        assert report.completeness_residual == check.completeness_residual
        for i, a in enumerate(ops):
            assert abs(report.idempotency_residuals[i] - maxabs(a @ a - a)) <= 1e-14
            for j, b in enumerate(ops):
                want = 0.0 if i == j else maxabs(a @ b)
                assert abs(report.orthogonality_residuals[i, j] - want) <= 1e-14
        pairs = report.rank_pairs
        assert [pair.state_rank for pair in pairs] == [numeric_rank(rho) for rho in e.rhos]
        assert [pair.povm_rank for pair in pairs] == [numeric_rank(op) for op in ops]
