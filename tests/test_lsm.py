from collections import Counter

import numpy as np
import pytest

from conftest import ket, near_collinear_pair, projector, pure_ensemble, trine_vectors
from psi_route import build_psi, factorize, psi_route_lsm

from qsd import (
    Ensemble,
    InvalidEnsembleError,
    Povm,
    SpanDeficientError,
    check_povm,
    compute_lsm,
    is_linearly_independent,
    make_povm,
    random_ensemble,
    solve_optimal,
    validate,
    vnm_report,
)
import qsd.linalg
from qsd.linalg import maxabs, polar_excess
from qsd.lsm import _lsm_factors, _weighted_factors

EPS = float(np.finfo(float).eps)


def gram_route_lsm(e):
    """Independent oracle: mu blocks via Psi (Psi* Psi)^{-1/2}.

    Uses the Gram matrix of the weighted factors instead of the outer
    product, so it exercises a different algebraic path than compute_lsm.
    The Gram matrix is singular when the blocks over-span the space, so the
    inverse square root is taken in the pseudo-inverse sense.
    """
    block = build_psi(e, factorize(e))
    psi = block.psi
    gram = psi.conj().T @ psi
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2)
    inv_sqrt_w = np.where(w > 1e-12 * w[-1], 1.0 / np.sqrt(np.abs(w)), 0.0)
    ginv_sqrt = (v * inv_sqrt_w) @ v.conj().T
    mu = psi @ ginv_sqrt
    ops = []
    for i in range(e.num_states):
        mi = mu[:, block.offsets[i] : block.offsets[i] + block.ranks[i]]
        ops.append(mi @ mi.conj().T)
    return ops


def test_lsm_orthogonal_pair(orthonormal_pair):
    povm = compute_lsm(orthonormal_pair)
    assert maxabs(povm.operators[0] - projector(ket(1, 0))) < 1e-12
    assert maxabs(povm.operators[1] - projector(ket(0, 1))) < 1e-12
    assert povm.ranks == (1, 1)


def test_lsm_zero_plus_matches_gram_oracle(zero_plus):
    povm = compute_lsm(zero_plus)
    expected = gram_route_lsm(zero_plus)
    for got, want in zip(povm.operators, expected):
        assert maxabs(got - want) < 1e-10
    # symmetric orthogonalization of two vectors gives orthogonal projectors
    for i in range(2):
        for j in range(2):
            target = povm.operators[i] if i == j else np.zeros((2, 2))
            assert maxabs(povm.operators[i] @ povm.operators[j] - target) < 1e-10


def test_lsm_trine_closed_form(trine):
    # Psi Psi* = I/2 for the trine, so each operator is (2/3) |phi_k><phi_k|
    povm = compute_lsm(trine)
    for op, v in zip(povm.operators, trine_vectors()):
        assert maxabs(op - (2 / 3) * projector(v)) < 1e-12
    # not projective: eigenvalue 2/3 is far from idempotent
    worst = max(
        maxabs(op @ op - op) for op in povm.operators
    )
    assert worst > 1e-3
    assert abs(maxabs(povm.operators[0] @ povm.operators[0] - povm.operators[0]) - 2 / 9) < 1e-12


def test_lsm_completeness(trine, zero_plus):
    for e in (trine, zero_plus):
        povm = compute_lsm(e)
        total = sum(povm.operators)
        assert maxabs(total - np.eye(e.dim)) <= 1e-8


def test_lsm_projective_expected(orthonormal_pair, trine):
    # the least-squares measurement is projective exactly for independent states
    e = random_ensemble(4, (2, 1, 1), seed=5, require_independent=True)
    for ens, independent in ((orthonormal_pair, True), (trine, False), (e, True)):
        assert is_linearly_independent(ens)[0] == independent
        assert vnm_report(ens, compute_lsm(ens), 1e-7).is_von_neumann == independent


def test_lsm_span_deficient():
    e = pure_ensemble((0.5, 0.5), (ket(1, 0, 0), ket(1, 1, 0)))
    with pytest.raises(SpanDeficientError) as exc_info:
        compute_lsm(e)
    assert exc_info.value.span_rank == 2
    assert exc_info.value.dim == 3
    assert exc_info.value.report.states_passed


@pytest.mark.parametrize("solve", [compute_lsm, solve_optimal])
@pytest.mark.parametrize("bad", [np.array([[0.5, 1.0], [1.0, 0.5]]), np.diag([1.5, -0.5])])
def test_invalid_states_are_not_called_span_deficient(solve, bad):
    """Indefinite states can make rho_bar look rank-deficient; the error
    names what is wrong with the states, not their span. Each state here has
    eigenvalues 1.5 and -0.5, and with I/2 it makes a rank-1 rho_bar."""
    e = Ensemble([0.5, 0.5], [bad, np.eye(2) / 2])
    with pytest.raises(InvalidEnsembleError) as exc_info:
        solve(e)
    assert not isinstance(exc_info.value, SpanDeficientError)
    report = exc_info.value.report
    assert report.span_rank == 1 and not report.states_passed and not report.passed


def test_lsm_projectivity_and_ranks_random_independent():
    shapes = [(2, (1, 1)), (3, (1, 2)), (4, (2, 2)), (5, (2, 2, 1)), (6, (2, 2, 2))]
    for k in range(50):
        dim, ranks = shapes[k % len(shapes)]
        e = random_ensemble(dim, ranks, seed=1300 + k, require_independent=True)
        povm = compute_lsm(e)
        assert maxabs(sum(povm.operators) - np.eye(dim)) <= 1e-8
        m = e.num_states
        for i in range(m):
            for j in range(m):
                target = povm.operators[i] if i == j else np.zeros((dim, dim))
                assert maxabs(povm.operators[i] @ povm.operators[j] - target) <= 1e-7
        assert povm.ranks == tuple(ranks)


def test_lsm_gram_oracle_random_mixed_corpus():
    # dependent but spanning ensembles: the two routes must still agree
    for k in range(20):
        e = random_ensemble(3, (2, 2, 3), seed=1500 + k)
        povm = compute_lsm(e)
        for got, want in zip(povm.operators, gram_route_lsm(e)):
            assert maxabs(got - want) < 1e-9


def test_block_overlap_identity_for_independent():
    # psi_i* (Psi Psi*)^{-1} psi_j collapses to delta_ij identity blocks
    for k in range(20):
        e = random_ensemble(4, (1, 2, 1), seed=1700 + k, require_independent=True)
        block = build_psi(e, factorize(e))
        inv = np.linalg.inv(block.psi @ block.psi.conj().T)
        for i in range(3):
            bi = block.block(i)
            for j in range(3):
                bj = block.block(j)
                prod = bi.conj().T @ inv @ bj
                if i == j:
                    assert maxabs(prod - np.eye(block.ranks[i])) <= 1e-8
                else:
                    assert maxabs(prod) <= 1e-8


@pytest.mark.parametrize("n", [16, 64, 128])
def test_lsm_matches_psi_route_independent(n):
    for k in range(3):
        e = random_ensemble(n, (n // 4,) * 4, priors=(0.1, 0.2, 0.3, 0.4),
                            seed=1900 + k, require_independent=True)
        povm = compute_lsm(e)
        for got, want in zip(povm.operators, psi_route_lsm(e)):
            assert maxabs(got - want) <= 1e-12


def test_lsm_matches_psi_route_dependent():
    shapes = [(2, (1, 2, 1)), (3, (2, 2, 3)), (4, (3, 1, 2, 4)), (6, (2, 5, 3))]
    for k in range(40):
        dim, ranks = shapes[k % len(shapes)]
        e = random_ensemble(dim, ranks, seed=2000 + k)
        povm = compute_lsm(e)
        for got, want in zip(povm.operators, psi_route_lsm(e)):
            assert maxabs(got - want) <= 1e-12


@pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, 1e-8])
def test_lsm_near_collinear_pair_is_span_deficient(eps):
    with pytest.raises(SpanDeficientError) as exc_info:
        compute_lsm(near_collinear_pair(eps))
    err = exc_info.value
    assert (err.span_rank, err.dim) == (1, 2)
    assert err.report.span_rank == 1 and not err.report.passed


def test_validated_ensembles_have_an_lsm():
    # whatever validate passes has a least-squares measurement, and it is a
    # POVM; near-collinear pure states probe the span cut from both sides
    rng = np.random.default_rng(77)
    passed = failed = 0
    for k in range(300):
        if k % 2:
            n = int(rng.integers(2, 6))
            ranks = [int(r) for r in rng.integers(1, n + 1, size=int(rng.integers(1, 6)))]
            e = random_ensemble(n, ranks, seed=8000 + k)
        else:
            e = near_collinear_pair(10.0 ** rng.uniform(-7, -3))
        if validate(e).passed:
            passed += 1
            assert check_povm(compute_lsm(e)).passed
        else:
            failed += 1
    assert passed > 50 and failed > 50


def test_lsm_invalid_ensemble_carries_report():
    e = pure_ensemble((0.6, 0.6), (ket(1, 0), ket(0, 1)))
    with pytest.raises(InvalidEnsembleError) as exc_info:
        compute_lsm(e)
    assert isinstance(exc_info.value, ValueError)
    assert not isinstance(exc_info.value, SpanDeficientError)
    report = exc_info.value.report
    assert not report.passed and report.span_rank == 2
    assert abs(report.prior_sum_deviation - 0.2) < 1e-12


def test_make_povm_stacks_operators():
    povm = make_povm([np.eye(2), np.zeros((2, 2)), np.diag([1.0, 0.0])])
    assert povm.operators.shape == (3, 2, 2)
    assert povm.operators.dtype == np.complex128
    assert povm.num_outcomes == 3
    assert povm.ranks == (2, 0, 1)


def test_make_povm_rejects_mixed_shapes():
    with pytest.raises(ValueError, match=r"of one shape, got \[\(2, 2\), \(3, 3\)\]"):
        make_povm([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match=r"of one shape, got \[\(2, 3\)\]"):
        make_povm([np.zeros((2, 3))])
    with pytest.raises(ValueError):
        make_povm([])
    with pytest.raises(ValueError):
        make_povm(np.zeros((2, 0, 0)))


def test_povm_checks_its_shape_and_copies():
    for bad, shapes in ((np.eye(2), r"\[\(2,\)\]"), (np.zeros((2, 2, 3)), r"\[\(2, 3\)\]")):
        with pytest.raises(ValueError, match=r"of one shape, got " + shapes):
            Povm(bad)
    ops = np.stack([np.eye(2), np.zeros((2, 2))])
    povm = Povm(ops)
    ops[0] = 0
    assert povm.operators[0, 0, 0] == 1
    with pytest.raises(ValueError):
        povm.operators[0] = 0


def count_decompositions(monkeypatch):
    """A counter of the ``eigh`` and ``svd`` calls at the kernel's entry points."""
    calls = Counter()
    for name in ("eigh", "svd"):
        def counted(*args, _real=getattr(qsd.linalg, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(qsd.linalg, name, counted)
    return calls


def svd_start(e):
    """``u @ vh`` of the thin SVD of the weighted-factor row, in its stack's shape."""
    f = _weighted_factors(e)
    u, _, vh = np.linalg.svd(f.reshape(-1, e.dim), full_matrices=False)
    return (u @ vh).reshape(f.shape)


START_ENSEMBLES = [
    *(pytest.param((n, (n // 4,) * 4, n, True), id=f"independent-n{n}") for n in (32, 64, 128)),
    *(pytest.param((32, (8,) * 6, s, False), id=f"dependent-n32-seed{s}") for s in range(3)),
]


@pytest.mark.parametrize("args", START_ENSEMBLES)
def test_start_reads_rho_bars_decomposition(monkeypatch, args):
    """From ``_N_GRAM`` columns on, the least-squares start takes the Gram
    route with rho_bar's eigendecomposition from ``Ensemble.span`` and no
    decomposition of its own. It is ``u @ vh`` of the weighted-factor row
    to within 8 n eps, and its columns are orthonormal to within the SVD's
    (rows + n) eps plus ``polar_excess`` of a start of m states, the bound
    the slackness screen's allowance uses."""
    dim, ranks, seed, independent = args
    e = random_ensemble(dim, ranks, seed=seed, require_independent=independent)
    e.state_spectra  # the states and rho_bar are decomposed before counting
    calls = count_decompositions(monkeypatch)
    kh = _lsm_factors(e)
    assert not calls
    m, r, n = kh.shape
    assert maxabs(kh - svd_start(e)) <= 8 * n * EPS
    q = kh.reshape(-1, n)
    assert maxabs(q.conj().T @ q - np.eye(n)) <= (m * r + n) * EPS + polar_excess(m * r, n, m)


def test_start_past_the_guard_takes_the_svd(monkeypatch):
    """Where rho_bar is conditioned past the guard, as with priors down to
    1e-8, the start is ``u @ vh`` of the thin SVD bit for bit, and one svd
    is all it takes."""
    skewed = (0.99999997, 1e-8, 1e-8, 1e-8)
    e = random_ensemble(32, (8,) * 4, priors=skewed, seed=3, require_independent=True)
    w = e.span[0]
    assert w[0] <= qsd.linalg._GUARD * w[-1]
    e.state_spectra
    calls = count_decompositions(monkeypatch)
    kh = _lsm_factors(e)
    assert calls == {"svd": 1}
    assert np.array_equal(kh, svd_start(e))


def test_start_with_a_negative_state_eigenvalue_decomposes_its_own_gram(monkeypatch):
    """Validation admits a state eigenvalue down to about -1e-9, which the
    factors drop. Beyond the rounding of the state's eigh it moves F F* off
    rho_bar by more than ``polar_excess`` allows: with rho_bar's
    decomposition this start would miss orthonormal by about 1e-7. So the
    start decomposes its own Gram matrix there, and stays within the bound."""
    p = 1e-5
    base = random_ensemble(32, (8,) * 4, priors=(1 - 3 * p, p, p, p), seed=3, require_independent=True)
    u = np.linalg.eigh(base.rhos[0])[1][:, 0]  # a direction outside the state's support
    rhos = np.array(base.rhos)
    rhos[0] -= 1e-9 * np.outer(u, u.conj())
    e = Ensemble(base.priors, rhos)
    assert validate(e).passed and e.state_spectra[0][0, 0] < -5e-10
    w, _, v = e.span
    assert w[0] > qsd.linalg._GUARD * w[-1]
    calls = count_decompositions(monkeypatch)
    kh = _lsm_factors(e)
    assert calls == {"eigh": 1}
    f = _weighted_factors(e)
    assert np.array_equal(kh, qsd.linalg.polar_factor(f))
    m, r, n = kh.shape
    bound = (m * r + n) * EPS + polar_excess(m * r, n, m)
    for start, within in ((kh, True), (qsd.linalg.polar_factor(f, (w, v)), False)):
        q = start.reshape(-1, n)
        assert (maxabs(q.conj().T @ q - np.eye(n)) <= bound) is within
