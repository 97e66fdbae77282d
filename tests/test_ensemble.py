import hashlib
import warnings

import numpy as np
import pytest

from conftest import ket, near_collinear_pair, projector, pure_ensemble
from psi_route import build_psi, factorize, inv_sqrt_psd, numeric_rank

from qsd import (
    Ensemble,
    Povm,
    deflate,
    is_linearly_independent,
    random_ensemble,
    validate,
)
import qsd.linalg
from qsd.linalg import maxabs
from qsd.lsm import _weighted_factors

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
    e = Ensemble([1.0], [2.0 * projector(ket(1, 0))])
    report = validate(e)
    assert not report.passed
    assert abs(report.trace_deviations[0] - 1.0) < 1e-12


NAN_STATES = (np.diag([np.nan, 1.0]), np.array([[0.5, np.nan], [np.nan, 0.5]]))
INF_STATES = (np.diag([np.inf, 1.0]), np.array([[0.5, np.inf], [0.0, 0.5]]),
              np.array([[0.5, np.inf], [np.inf, 0.5]]), np.diag([np.inf, -np.inf]))


def test_validate_gives_a_nonfinite_state_no_psd_margin():
    """eigvalsh(diag(nan, 1)) returns [0, -0], which would read as PSD; a NaN
    state is refused when the ensemble is built, so validate never gives it
    a margin."""
    half = np.eye(2) / 2
    for bad in NAN_STATES:
        with pytest.raises(ValueError, match="finite"):
            Ensemble([0.5, 0.5], [bad, half])


def test_validate_reports_an_infinite_state_under_warnings_as_errors():
    """inf - inf and inf * 0 are invalid operations, which -W error turns
    into exceptions; an infinite state is refused with a ValueError when the
    ensemble is built, not through a numpy warning."""
    half = np.eye(2) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in INF_STATES:
            with pytest.raises(ValueError, match="finite"):
                Ensemble([0.5, 0.5], [bad, half])


def test_ensemble_and_povm_refuse_nonfinite_entries():
    """A NaN or infinite operator or prior is refused when the POVM or the
    ensemble is built, as the wire decoders refuse it, so no derived
    quantity meets one. Warnings are errors, so the refusal must not pass
    through a numpy warning such as inf - inf."""
    half = np.eye(2) / 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in NAN_STATES + INF_STATES:
            with pytest.raises(ValueError, match="finite"):
                Povm([bad, np.eye(2) - half])
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                Ensemble([bad, 0.5], [half, half])
            with pytest.raises(ValueError, match="finite"):
                Ensemble([0.5, bad], [half, half])


def test_weighted_factors_match_the_weighted_states_and_the_oracle_ranks():
    ensembles = [random_ensemble(n, (n // 4,) * 4, seed=n, require_independent=True)
                 for n in (16, 32, 64)]
    for k in range(40):
        rng = np.random.default_rng([3100, k])
        n, m = 2 + k % 5, 2 + (k // 5) % 6
        e = random_ensemble(n, rng.integers(1, n + 1, size=m), seed=k)
        if e.span[1] == n:
            ensembles.append(e)
    assert len(ensembles) > 30
    for e in ensembles:
        f = _weighted_factors(e)
        oracle = factorize(e).ranks
        assert f.shape == (e.num_states, max(oracle), e.dim)
        # a factor's width is its count of nonzero rows; the padding is zero
        widths = np.count_nonzero(np.abs(f).max(axis=2), axis=1)
        assert tuple(widths.tolist()) == oracle == tuple(e.state_spectra[2].tolist())
        # the states' decomposition keeps the eigenvectors of the widest factor only
        assert tuple(e.state_spectra[3].tolist()) == oracle
        assert e.state_spectra[1].shape == (e.num_states, e.dim, max(oracle))
        assert maxabs(np.conj(f).swapaxes(1, 2) @ f - e.weighted_states) <= 1e-12


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
        total_rank = sum(numeric_rank(rho) for rho in e.rhos)
        assert is_linearly_independent(e) == (span_rank == total_rank, span_rank, total_rank)
        deficient += span_rank < n
    assert deficient > 0


def test_factorize_rank_one():
    e = pure_ensemble((1.0,), (ket(1, 0),))
    f = factorize(e)
    assert f.ranks == (1,)
    phi = f.factors[0]
    assert phi.shape == (2, 1)
    assert maxabs(phi @ phi.conj().T - e.rhos[0]) < 1e-12


def test_factorize_maximally_mixed():
    e = Ensemble([1.0], [np.eye(2) / 2])
    f = factorize(e)
    assert f.ranks == (2,)
    phi = f.factors[0]
    assert maxabs(phi @ phi.conj().T - np.eye(2) / 2) < 1e-12
    # columns orthogonal with squared norms equal to the eigenvalues (1/2 each)
    gram = phi.conj().T @ phi
    assert maxabs(gram - np.eye(2) / 2) < 1e-12


def test_factorize_diagonal_mixed():
    e = Ensemble([1.0], [np.diag([0.75, 0.25])])
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
    e = Ensemble([1.0], [np.eye(2) / 2])
    block = build_psi(e, factorize(e))
    assert maxabs(block.psi @ block.psi.conj().T - np.eye(2) / 2) < 1e-12


def test_zero_prior_rejected_upstream():
    e = pure_ensemble((1.0, 0.0), (ket(1, 0), ket(0, 1)))
    assert not validate(e).passed
    with pytest.raises(ValueError, match=r"priors must be finite and strictly positive"):
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
    with pytest.raises(ValueError, match=r"independent ensembles need ranks summing to dim=2"):
        random_ensemble(2, (1, 1, 1), seed=0, require_independent=True)
    with pytest.raises(ValueError, match=r"every rank in \[1, dim\], got 2, \(1, 0\)"):
        random_ensemble(2, (1, 0), seed=0)
    for dim, ranks in ((0, (1,)), (2, (3, 5)), (2, (1, 3))):
        with pytest.raises(ValueError, match=r"dim >= 1 and every rank in \[1, dim\]"):
            random_ensemble(dim, ranks, seed=0)


@pytest.mark.parametrize("dim, ranks", [
    (2, (True, 1)),  # a bool is not a rank, though it compares as 1
    (2, (1.7, 1)),  # a float rank is not truncated to 1
    (2, (np.float64(2.0), 1)),
    (3, "11"),  # a string is not read character by character
    (3, b"12"),
    (True, (1,)),  # nor is a bool a dimension
    (2.0, (1, 1)),
    (np.float64(2.0), (1, 1)),
])
def test_random_ensemble_refuses_ranks_and_dims_that_are_not_integers(dim, ranks):
    with pytest.raises(ValueError, match=r"need integers, dim >= 1"):
        random_ensemble(dim, ranks, seed=0)


def test_random_ensemble_takes_numpy_integers():
    want = random_ensemble(3, (2, 1), seed=5, require_independent=True)
    got = random_ensemble(np.int64(3), np.array([2, 1]), seed=np.int32(5),
                          require_independent=True)
    assert np.array_equal(got.rhos, want.rhos)


def test_random_ensemble_bad_priors():
    with pytest.raises(ValueError, match=r"priors sum to 1\.4, expected 1"):
        random_ensemble(2, (1, 1), priors=(0.7, 0.7), seed=0)
    with pytest.raises(ValueError, match=r"unrecognized priors value 'weird'"):
        random_ensemble(2, (1, 1), priors="weird", seed=0)
    with pytest.raises(ValueError, match=r"got 3 priors for 2 states"):
        random_ensemble(2, (1, 1), priors=(0.5, 0.25, 0.25), seed=0)
    # nan fails every comparison, so it must be rejected, not let through
    for bad in ((float("nan"), 1.0), (1.0, float("nan")), (float("inf"), 1.0),
                (0.5, float("inf")), (float("nan"),) * 2):
        with pytest.raises(ValueError, match=r"priors must be finite and strictly positive"):
            random_ensemble(2, (1, 1), priors=bad, seed=0)


def test_random_ensemble_deterministic():
    a = random_ensemble(3, (2, 1), seed=42, require_independent=True)
    b = random_ensemble(3, (2, 1), seed=42, require_independent=True)
    c = random_ensemble(3, (2, 1), seed=43, require_independent=True)
    assert np.array_equal(a.rhos, b.rhos)
    assert any(maxabs(ra - rc) > 1e-3 for ra, rc in zip(a.rhos, c.rhos))


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
        for rho, phi in zip(e.rhos, f.factors):
            assert maxabs(phi @ phi.conj().T - rho) <= 1e-9


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
    overlap = np.trace(e.rhos[0] @ e.rhos[1]).real
    overlap_reduced = np.trace(reduced.rhos[0] @ reduced.rhos[1]).real
    assert abs(overlap - overlap_reduced) < 1e-12


@pytest.mark.parametrize("make", [
    lambda: pure_ensemble((0.5, 0.5), (ket(1, 0, 0), ket(1, 1, 0))),
    lambda: near_collinear_pair(1e-7),
    lambda: random_ensemble(8, (2, 2, 2), seed=5),
    lambda: random_ensemble(16, (4,) * 4, seed=0, require_independent=True),
], ids=["plane-in-C3", "near-collinear", "deficient-n8", "independent-n16"])
def test_deflate_reads_its_basis_from_the_span(monkeypatch, make):
    """deflate takes no decomposition of rho_bar of its own: its basis is the
    top eigenvectors of ``Ensemble.span``, largest eigenvalue first, bit for
    bit, and read-only. They are those of ``np.linalg.eigh`` of rho_bar, the
    basis deflate took before it read the span."""
    e = make()
    w, k, v = e.span
    eighs = []
    monkeypatch.setattr(qsd.linalg, "eigh", lambda a: eighs.append(a) or np.linalg.eigh(a))
    reduced, basis = deflate(e)
    assert not eighs
    assert basis.shape == (e.dim, k) and reduced.dim == k
    assert np.array_equal(basis, v[:, ::-1][:, :k])
    want = np.linalg.eigh(e.weighted_states.sum(axis=0))[1][:, ::-1][:, :k]
    assert np.array_equal(basis, want)
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0] = 0


# SHA-256 of the priors' float64 bytes followed by the rhos' complex128 bytes,
# captured before ensembles became stacks; the benchmark corpora are drawn
# with this function, so a change here changes every corpus.
RANDOM_ENSEMBLE_SHA256 = [
    ((4, (2, 1, 1), "uniform", 7, True),
     "6aedab5f39cf8e53807cb6e07c67ad631eeffc6462722b9ce3f7575e0ae0dd1e"),
    ((6, (3, 3), (0.3, 0.7), 11, True),
     "fc28439e6bfa09ca87f6f1ae54fadfa2af6c9ff38c0dc12dfedd941fd369d0fe"),
    ((16, (4, 4, 4, 4), "uniform", 404, True),
     "04327e585edd938959e1107db8fbc348aa87007f10e2bf09e72b4cda9ac356ff"),
    ((3, (2, 1, 3), "uniform", 5, False),
     "4336de279fe20d630592b0f74e9302cf6fdec566a91cfc3e5e1953f9ad6f20f6"),
    ((5, (1, 2, 5, 3), (0.1, 0.2, 0.3, 0.4), 123, False),
     "8d672d433a620539d47f531cc2f4d3c6c70221a1a6a2f5708035d00fd7f2eb3d"),
    ((2, (1,) * 7, "uniform", 0, False),
     "35a2cc7ff8800a0802f6edd77114b925ea8d086e959311b7132b6295449ee7cd"),
]


@pytest.mark.parametrize(
    "args,digest", RANDOM_ENSEMBLE_SHA256,
    ids=[f"{'independent' if a[4] else 'dependent'}-n{a[0]}-seed{a[3]}"
         for a, _ in RANDOM_ENSEMBLE_SHA256],
)
def test_random_ensemble_bytes_are_pinned(args, digest):
    dim, ranks, priors, seed, independent = args
    e = random_ensemble(dim, ranks, priors=priors, seed=seed,
                        require_independent=independent)
    assert e.priors.dtype == np.float64 and e.rhos.dtype == np.complex128
    h = hashlib.sha256(e.priors.tobytes())
    h.update(e.rhos.tobytes())
    assert h.hexdigest() == digest


def test_ensemble_stacks_and_copies():
    priors = np.array([0.25, 0.75])
    rhos = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
    e = Ensemble(priors, rhos)
    assert e.dim == 2 and e.num_states == 2
    assert e.priors.shape == (2,) and e.rhos.shape == (2, 2, 2)
    # the caller's arrays are copied, not aliased
    priors[0] = 0.5
    rhos[0][0, 0] = 7.0
    assert e.priors[0] == 0.25 and e.rhos[0, 0, 0] == 1.0
    stack = np.stack(rhos)
    assert not np.shares_memory(Ensemble(priors, stack).rhos, stack)
    # and stored read-only, as are the quantities derived from them
    derived = (e.weighted_states, e.span[0], e.span[2], *e.state_spectra, deflate(e)[1])
    for arr in (e.priors, e.rhos, *derived):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_ensemble_rejects_bad_shapes():
    rho = np.eye(2) / 2
    with pytest.raises(ValueError):
        Ensemble([0.5, 0.5], [rho])
    with pytest.raises(ValueError):
        Ensemble([[1.0]], [rho])
    with pytest.raises(ValueError, match=r"of one shape, got \[\(2, 2\), \(3, 3\)\]"):
        Ensemble([0.5, 0.5], [rho, np.eye(3) / 3])
    with pytest.raises(ValueError, match=r"of one shape, got \[\(2, 3\)\]"):
        Ensemble([1.0], [np.ones((2, 3))])
    with pytest.raises(ValueError, match=r"of one shape, got \[\(2,\)\]"):
        Ensemble([1.0], [np.ones(2)])
    with pytest.raises(ValueError):
        Ensemble([], [])
    with pytest.raises(ValueError):
        Ensemble([1.0], np.zeros((1, 0, 0)))
