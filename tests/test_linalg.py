import numpy as np
import pytest

from psi_route import inv_sqrt_psd, numeric_rank

from qsd.linalg import hermitian_part, maxabs, psd_rank, spectrum_rank, trace_norm

np_rng = np.random.default_rng(11)


def rand_psd(n):
    a = np_rng.normal(size=(n, n)) + 1j * np_rng.normal(size=(n, n))
    return a @ a.conj().T


def test_inv_sqrt_identity():
    assert maxabs(inv_sqrt_psd(np.eye(2)) - np.eye(2)) < 1e-12


def test_inv_sqrt_diagonal():
    got = inv_sqrt_psd(np.diag([4.0, 0.25]))
    assert maxabs(got - np.diag([0.5, 2.0])) < 1e-12


def test_inv_sqrt_rejects_near_singular():
    with pytest.raises(ValueError):
        inv_sqrt_psd(np.diag([1.0, 1e-14]))


def test_sqrt_and_inv_sqrt_random():
    for _ in range(100):
        n = int(np_rng.integers(1, 7))
        m = rand_psd(n)
        m_pd = m + 0.1 * np.eye(n)  # bounded away from singular
        w = inv_sqrt_psd(m_pd)
        assert maxabs(w @ m_pd @ w - np.eye(n)) <= 1e-7


def test_inv_sqrt_raises_exactly_below_full_psd_rank():
    for w in ([1.0, 1e-9], [1.0, 1e-10], [1.0, 0.99e-10], [1.0, 0.0], [0.0, 0.0], [-1.0, -2.0]):
        m = np.diag(w)
        singular = psd_rank(np.diag(w)) < 2
        assert singular == (min(w) < 1e-10 * max(w) or max(w) <= 0.0)
        if singular:
            with pytest.raises(ValueError):
                inv_sqrt_psd(m)
        else:
            inv_sqrt_psd(m)


def test_numeric_rank_cases():
    # psd_rank against the SVD rank of the oracle
    v = np.array([1.0, 1j]) / np.sqrt(2)
    for m, r in ((np.diag([1.0, 0.0]), 1), (np.eye(3), 3),
                 (np.outer(v, v.conj()), 1), (np.zeros((3, 3)), 0)):
        assert psd_rank(m) == numeric_rank(m) == r
    # only positive eigenvalues count, at the same cut span uses
    assert psd_rank(np.diag([1.0, 1e-10, 0.99e-10])) == 2
    assert psd_rank(np.diag([1.0, -1.0])) == 1
    assert psd_rank(-np.eye(2)) == 0
    # a cut that underflows to zero must not count the zero eigenvalue
    assert psd_rank(np.diag([5e-324, 0.0])) == numeric_rank(np.diag([5e-324, 0.0])) == 1


def test_numeric_rank_matches_column_count():
    for _ in range(50):
        n = int(np_rng.integers(2, 9))
        r = int(np_rng.integers(1, n + 1))
        a = np_rng.normal(size=(n, r)) + 1j * np_rng.normal(size=(n, r))
        q, _ = np.linalg.qr(a)
        assert psd_rank(q @ q.conj().T) == numeric_rank(q @ q.conj().T) == r


def test_trace_norm_cases():
    assert abs(trace_norm(np.eye(4)) - 4.0) < 1e-12
    assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-12


def test_trace_norm_pure_state_difference():
    # |0><0| - |+><+| has eigenvalues +-1/sqrt(2), so trace norm sqrt(2)
    zero = np.array([[1.0, 0.0], [0.0, 0.0]])
    plus = np.full((2, 2), 0.5)
    assert abs(trace_norm(zero - plus) - np.sqrt(2.0)) < 1e-12


def test_trace_norm_equals_trace_for_psd():
    for _ in range(50):
        n = int(np_rng.integers(1, 7))
        m = rand_psd(n)
        assert abs(trace_norm(m) - float(np.trace(m).real)) <= 1e-10 * n * (
            1 + maxabs(m)
        )


def test_trace_norm_rejects_nonsquare():
    with pytest.raises(ValueError):
        trace_norm(np.zeros((1, 2)))


def test_hermitian_part_symmetrizes():
    a = np_rng.normal(size=(3, 3)) + 1j * np_rng.normal(size=(3, 3))
    h = hermitian_part(a)
    assert maxabs(h - h.conj().T) == 0.0


def test_hermitian_part_stack_matches_slices():
    a = np_rng.normal(size=(4, 3, 3)) + 1j * np_rng.normal(size=(4, 3, 3))
    h = hermitian_part(a)
    assert h.shape == a.shape
    for k in range(4):
        assert np.array_equal(h[k], hermitian_part(a[k]))
    with pytest.raises(ValueError):
        hermitian_part(np.zeros((4, 2, 3)))


def test_numeric_rank_stack_matches_slices():
    stack = np.stack([np.diag([1.0, 0.0, 0.0]), np.eye(3), np.zeros((3, 3)), rand_psd(3)])
    ranks = psd_rank(stack)
    assert ranks.tolist() == [psd_rank(m) for m in stack] == [1, 3, 0, 3]
    assert ranks.tolist() == numeric_rank(stack).tolist()
    w = np.linalg.eigvalsh(stack)
    assert spectrum_rank(w).tolist() == [spectrum_rank(row) for row in w] == [1, 3, 0, 3]
