import numpy as np
import pytest

from conftest import ket, near_collinear_pair, projector, pure_ensemble
from psi_route import build_psi, factorize

from qsd import (
    BadPriorsError,
    BadRanksError,
    Ensemble,
    State,
    deflate,
    inv_sqrt_psd,
    is_linearly_independent,
    numeric_rank,
    random_ensemble,
    validate,
)
from qsd.linalg import maxabs

np_rng = np.random.default_rng(23)


def test_validate_passes_orthonormal_pair(orthonormal_pair):
    report = validate(orthonormal_pair)
    assert report.passed
    assert report.span_rank == 2
    assert report.prior_sum_deviation < 1e-12
    assert min(report.psd_margins) >= -1e-12


def test_validate_flags_prior_sum():
    e = pure_ensemble((0.5, 0.4), (ket(1, 0), ket(0, 1)))
    report = validate(e)
    assert not report.passed
    assert abs(report.prior_sum_deviation - 0.1) < 1e-12


def test_validate_flags_trace():
    e = Ensemble(2, (State(1.0, 2.0 * projector(ket(1, 0))),))
    report = validate(e)
    assert not report.passed
    assert abs(report.trace_deviations[0] - 1.0) < 1e-12


def test_validate_flags_span_deficiency():
    # two copies of |0><0| only span one dimension of a qubit space
    e = pure_ensemble((0.5, 0.5), (ket(1, 0), ket(1, 0)))
    report = validate(e)
    assert not report.passed
    assert report.span_rank == 1


@pytest.mark.parametrize("eps", [1e-5, 1e-6, 1e-7, 1e-8])
def test_near_collinear_pair_is_span_deficient(eps):
    # the singular values of hstack(rho_i) stay above their cut here; the
    # span is decided on rho_bar, where the least-squares measurement needs it
    e = near_collinear_pair(eps)
    report = validate(e)
    assert not report.passed
    assert report.span_rank == 1
    assert is_linearly_independent(e) == (False, 1, 2)
    reduced, basis = deflate(e)
    assert reduced.dim == 1 and basis.shape == (2, 1)
    assert validate(reduced).passed


def test_span_rank_agrees_with_hstack_rank():
    rng = np.random.default_rng(404)
    deficient = 0
    for k in range(300):
        n = int(rng.integers(2, 7))
        ranks = [int(r) for r in rng.integers(1, n + 1, size=int(rng.integers(1, 8)))]
        e = random_ensemble(n, ranks, seed=7000 + k)
        span_rank = validate(e).span_rank
        assert span_rank == numeric_rank(np.hstack(e.rhos))
        deficient += span_rank < n
    assert deficient > 0


def test_factorize_rank_one():
    e = pure_ensemble((1.0,), (ket(1, 0),))
    f = factorize(e)
    assert f.ranks == (1,)
    phi = f.factors[0]
    assert phi.shape == (2, 1)
    assert maxabs(phi @ phi.conj().T - e.states[0].rho) < 1e-12


def test_factorize_maximally_mixed():
    e = Ensemble(2, (State(1.0, np.eye(2, dtype=complex) / 2),))
    f = factorize(e)
    assert f.ranks == (2,)
    phi = f.factors[0]
    assert maxabs(phi @ phi.conj().T - np.eye(2) / 2) < 1e-12
    # columns orthogonal with squared norms equal to the eigenvalues (1/2 each)
    gram = phi.conj().T @ phi
    assert maxabs(gram - np.eye(2) / 2) < 1e-12


def test_factorize_diagonal_mixed():
    e = Ensemble(2, (State(1.0, np.diag([0.75, 0.25]).astype(complex)),))
    f = factorize(e)
    phi = f.factors[0]
    assert f.ranks == (2,)
    assert maxabs(phi @ phi.conj().T - np.diag([0.75, 0.25])) < 1e-12
    norms = np.sort(np.linalg.norm(phi, axis=0) ** 2)
    assert np.allclose(norms, [0.25, 0.75])


def test_independence_orthonormal(orthonormal_pair):
    assert is_linearly_independent(orthonormal_pair) == (True, 2, 2)


def test_independence_zero_plus(zero_plus):
    # Gram determinant of |0>, |+> is 1 - 1/2 = 1/2, nonzero
    assert is_linearly_independent(zero_plus) == (True, 2, 2)


def test_independence_trine(trine):
    assert is_linearly_independent(trine) == (False, 2, 3)


def test_build_psi_orthonormal_pair(orthonormal_pair):
    f = factorize(orthonormal_pair)
    block = build_psi(orthonormal_pair, f)
    assert block.psi.shape == (2, 2)
    assert block.offsets == (0, 1)
    assert maxabs(np.abs(block.psi) - np.eye(2) / np.sqrt(2)) < 1e-12
    assert maxabs(block.psi @ block.psi.conj().T - np.eye(2) / 2) < 1e-12


def test_build_psi_single_mixed_state():
    e = Ensemble(2, (State(1.0, np.eye(2, dtype=complex) / 2),))
    block = build_psi(e, factorize(e))
    assert maxabs(block.psi @ block.psi.conj().T - np.eye(2) / 2) < 1e-12


def test_zero_prior_rejected_upstream():
    e = pure_ensemble((1.0, 0.0), (ket(1, 0), ket(0, 1)))
    assert not validate(e).passed
    with pytest.raises(BadPriorsError):
        random_ensemble(2, (1, 1), priors=(1.0, 0.0), seed=0)


def test_random_ensemble_independent_qubits():
    e = random_ensemble(2, (1, 1), priors="uniform", seed=7, require_independent=True)
    assert validate(e).passed
    assert is_linearly_independent(e)[0]


def test_random_ensemble_rank_sum():
    e = random_ensemble(4, (2, 2), seed=3, require_independent=True)
    f = factorize(e)
    assert sum(f.ranks) == 4


def test_random_ensemble_bad_ranks():
    with pytest.raises(BadRanksError):
        random_ensemble(2, (1, 1, 1), seed=0, require_independent=True)
    with pytest.raises(BadRanksError):
        random_ensemble(2, (1, 0), seed=0)


def test_random_ensemble_bad_priors():
    with pytest.raises(BadPriorsError):
        random_ensemble(2, (1, 1), priors=(0.7, 0.7), seed=0)
    with pytest.raises(BadPriorsError):
        random_ensemble(2, (1, 1), priors="weird", seed=0)


def test_random_ensemble_deterministic():
    a = random_ensemble(3, (2, 1), seed=42, require_independent=True)
    b = random_ensemble(3, (2, 1), seed=42, require_independent=True)
    c = random_ensemble(3, (2, 1), seed=43, require_independent=True)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.rho, sb.rho)
    assert any(
        maxabs(sa.rho - sc.rho) > 1e-3 for sa, sc in zip(a.states, c.states)
    )


def test_uniform_priors_sum_exactly():
    for m in (2, 3, 4, 5, 6, 7):
        e = random_ensemble(m, (1,) * m, priors="uniform", seed=1,
                            require_independent=True)
        assert float(e.priors.sum()) == 1.0


def test_random_independent_corpus_properties():
    shapes = [(2, (1, 1)), (3, (2, 1)), (4, (2, 2)), (5, (2, 2, 1)), (6, (3, 2, 1))]
    for k in range(100):
        dim, ranks = shapes[k % len(shapes)]
        e = random_ensemble(dim, ranks, seed=500 + k, require_independent=True)
        report = validate(e)
        assert report.passed
        flag, span, total = is_linearly_independent(e)
        assert flag and span == dim and total == dim
        f = factorize(e)
        for s, phi in zip(e.states, f.factors):
            assert maxabs(phi @ phi.conj().T - s.rho) <= 1e-9


def test_psi_invertible_for_independent():
    for k in range(20):
        e = random_ensemble(4, (2, 1, 1), seed=900 + k, require_independent=True)
        block = build_psi(e, factorize(e))
        assert block.psi.shape == (4, 4)
        inv_sqrt_psd(block.psi @ block.psi.conj().T)  # must not raise


def test_deflate_reduces_to_spanned_subspace():
    # two pure states living in a plane of a 3-dimensional space
    e = pure_ensemble((0.5, 0.5), (ket(1, 0, 0), ket(1, 1, 0)))
    assert not validate(e).passed
    reduced, basis = deflate(e)
    assert reduced.dim == 2
    assert basis.shape == (3, 2)
    assert validate(reduced).passed
    # deflation preserves pairwise overlaps
    overlap = np.trace(e.states[0].rho @ e.states[1].rho).real
    overlap_reduced = np.trace(reduced.states[0].rho @ reduced.states[1].rho).real
    assert abs(overlap - overlap_reduced) < 1e-12
