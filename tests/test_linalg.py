import importlib.util
import sys

import numpy as np
import pytest

from psi_route import inv_sqrt_psd, numeric_rank

import qsd.linalg
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


def complex_normal(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def kernel_cases(seed):
    """Seeded complex inputs of the shapes the package passes, each with the
    public ``np.linalg`` call the kernel's entry point must reproduce: tall
    (m r, n) rows with n <= 6 and their (m, r, n) stacks for the SVD,
    Hermitian matrices up to n = 128 and (m, n, n) stacks for the
    eigensolvers, and Gram systems of up to 5 unknowns for the solve."""
    rng = np.random.default_rng(seed)
    for n in range(1, 7):
        for rows in (n, 3 * n, 7 * n):
            a = complex_normal(rng, rows, n)
            yield "svd", (a,), np.linalg.svd(a, full_matrices=False)
            yield "svd", (a.reshape(-1, 1, n),), np.linalg.svd(a.reshape(-1, 1, n), full_matrices=False)
        # a transposed view, as a strided input
        wide = complex_normal(rng, n, 5 * n)
        yield "svd", (wide.T,), np.linalg.svd(wide.T, full_matrices=False)
    for n in (1, 2, 3, 4, 5, 6, 16, 32, 64, 128):
        h = hermitian_part(complex_normal(rng, n, n))
        yield "eigh", (h,), np.linalg.eigh(h)
        yield "eigvalsh", (h,), np.linalg.eigvalsh(h)
    for m, n in ((1, 2), (4, 3), (7, 6), (4, 16)):
        stack = hermitian_part(complex_normal(rng, m, n, n))
        yield "eigh", (stack,), np.linalg.eigh(stack)
        yield "eigvalsh", (stack,), np.linalg.eigvalsh(stack)
    for d in range(1, 6):
        rows = complex_normal(rng, d, 40)
        gram, rhs = rows.conj() @ rows.T, rows.conj() @ complex_normal(rng, 40)
        yield "solve", (gram, rhs), np.linalg.solve(gram, rhs)


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_same_results(kernel, seed):
    for name, args, want in kernel_cases(seed):
        got = getattr(kernel, name)(*args)
        if isinstance(want, np.ndarray):
            got, want = (got,), (want,)
        assert len(got) == len(want)
        assert all(same_bits(g, w) for g, w in zip(got, want)), (name, [a.shape for a in args])


def singular_system():
    a = complex_normal(np.random.default_rng(5), 5, 5)
    a[:, 2] = 0.0
    return a, np.ones(5, dtype=np.complex128)


def kernel_without(monkeypatch, missing):
    """A fresh copy of ``qsd.linalg`` loaded where the numpy module
    ``missing`` cannot be imported. The package's own ``qsd.linalg`` is left
    as it is."""
    monkeypatch.setitem(sys.modules, missing, None)
    spec = importlib.util.spec_from_file_location("qsd._fallback_linalg", qsd.linalg.__file__)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def fallback_kernel(monkeypatch):
    """``qsd.linalg`` loaded where numpy's gufunc module cannot be imported,
    as on numpy 1.x: the route every entry point takes there."""
    return kernel_without(monkeypatch, "numpy.linalg._umath_linalg")


@pytest.mark.parametrize("seed", [0, 1])
def test_kernel_matches_np_linalg_bit_for_bit(seed):
    assert_same_results(qsd.linalg, seed)


def test_kernel_raises_linalg_error_on_a_singular_system():
    """A zero pivot is LAPACK's failure, which the kernel's error mode turns
    into ``LinAlgError``; outside that mode the gufunc would only warn."""
    a, b = singular_system()
    with pytest.raises(np.linalg.LinAlgError) as public:
        np.linalg.solve(a, b)
    with pytest.raises(np.linalg.LinAlgError) as kernel:
        qsd.linalg.solve(a, b)
    assert str(kernel.value) == str(public.value)


def test_fallback_kernel_gives_the_same_results(fallback_kernel):
    assert fallback_kernel.eigh is np.linalg.eigh
    assert fallback_kernel.eigvalsh is np.linalg.eigvalsh
    assert fallback_kernel.solve is np.linalg.solve
    assert_same_results(fallback_kernel, 0)
    with pytest.raises(np.linalg.LinAlgError):
        fallback_kernel.solve(*singular_system())


@pytest.mark.parametrize("missing", ["numpy._core._multiarray_umath", "numpy._core._ufunc_config"])
def test_a_numpy_without_the_error_state_names_takes_the_public_route(monkeypatch, missing):
    """The kernel sets numpy's error state through two private names; a numpy
    that lacks either takes the public ``np.linalg`` route, as numpy 1.x
    does, rather than calling the gufuncs outside their error mode."""
    kernel = kernel_without(monkeypatch, missing)
    assert kernel.eigh is np.linalg.eigh and kernel.solve is np.linalg.solve


def entry_point_calls():
    """One call of each entry point on a small well-posed input."""
    rng = np.random.default_rng(3)
    h = hermitian_part(complex_normal(rng, 4, 4))
    a = complex_normal(rng, 12, 4)
    return (
        lambda: qsd.linalg.eigh(h),
        lambda: qsd.linalg.eigvalsh(h),
        lambda: qsd.linalg.svd(a),
        lambda: qsd.linalg.solve(h + 8 * np.eye(4), a[0]),
    )


def singular_solve_message():
    with pytest.raises(np.linalg.LinAlgError) as failure:
        qsd.linalg.solve(*singular_system())
    return str(failure.value)


def test_entry_points_leave_the_callers_error_state_as_it_was():
    """Each entry point sets its error mode only for its own call: after it
    returns, or after a singular solve raises, the caller's error flags and
    error callback are those the caller set."""

    def callback(err, flag):
        pass

    for state in ({}, {"call": callback, "over": "raise", "divide": "warn",
                       "under": "print", "invalid": "ignore"}):
        with np.errstate(**state):
            before = np.geterr(), np.geterrcall()
            for call in entry_point_calls():
                call()
                assert (np.geterr(), np.geterrcall()) == before
            assert singular_solve_message() == "Singular matrix"
            assert (np.geterr(), np.geterrcall()) == before


def test_entry_points_run_in_their_own_error_mode():
    """The caller's error state does not reach LAPACK's failure report: under
    ``all="raise"`` the calls return, and a NaN input still raises
    ``LinAlgError`` rather than ``FloatingPointError``; under
    ``invalid="ignore"`` a singular solve still raises ``LinAlgError``
    rather than returning a result with NaN in it."""
    with np.errstate(all="raise"):
        for call in entry_point_calls():
            call()
        with pytest.raises(np.linalg.LinAlgError):
            qsd.linalg.svd(np.full((6, 3), np.nan, dtype=np.complex128))
    with np.errstate(invalid="ignore"):
        assert singular_solve_message() == "Singular matrix"


@pytest.mark.skipif(int(np.__version__.split(".")[0]) < 2, reason="numpy 1.x takes the public route")
def test_numpy_2_takes_the_route_without_errstate(monkeypatch):
    """On numpy 2 a whole solve builds no error state: with ``np.errstate``,
    and the ``_make_extobj`` that every ``np.errstate`` and every public
    ``np.linalg`` decomposition calls through, made to raise, a solve still
    converges. A numpy that drops any name the kernel imports sends it to the
    public route, which fails here."""
    import numpy._core._ufunc_config

    from qsd import random_ensemble, solve_optimal

    def refuse(*args, **kwargs):
        raise AssertionError("an error state was built during the solve")

    e = random_ensemble(3, (2, 2, 1, 2), seed=1)
    monkeypatch.setattr(np, "errstate", refuse)
    monkeypatch.setattr(numpy._core._ufunc_config, "_make_extobj", refuse)
    with pytest.raises(AssertionError):
        np.linalg.svd(np.eye(2))
    _, _, diag = solve_optimal(e)
    assert diag.converged and diag.iterations == 13


EPS = float(np.finfo(float).eps)


def polar_rows(seed):
    """Seeded square and tall (2n, n) complex rows at n = 16, 32 and 128."""
    rng = np.random.default_rng(seed)
    for n in (16, 32, 128):
        for rows in (n, 2 * n):
            yield complex_normal(rng, rows, n)


def svd_polar(b):
    u, _, vh = qsd.linalg.svd(b)
    return u @ vh


def row_of_condition(n, cond_gram, seed):
    """A (2n, n) row whose Gram matrix A* A has condition number ``cond_gram``."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(complex_normal(rng, 2 * n, n))
    v, _ = np.linalg.qr(complex_normal(rng, n, n))
    return (u * np.geomspace(1.0, cond_gram**-0.5, n)) @ v.conj().T


@pytest.mark.parametrize("seed", [0, 1])
def test_polar_factor_is_the_svds_u_vh(seed):
    """On either route the polar factor is U V* to within 8 n eps; both
    routes move it by rounding times cond(A), which is up to about 700
    here, and the Gram route's result was at most 3.1 n eps from the SVD's.
    Its columns are orthonormal to within the SVD's (rows + n) eps plus the
    Gram route's ``polar_excess``, the bound on |K K* - I| that the
    slackness screen's allowance assumes."""
    for b in polar_rows(seed):
        rows, n = b.shape
        q = qsd.linalg.polar_factor(b)
        assert q.shape == b.shape
        assert maxabs(q - svd_polar(b)) <= 8 * n * EPS
        defect = maxabs(q.conj().T @ q - np.eye(n))
        assert defect <= (rows + n) * EPS + qsd.linalg.polar_excess(rows, n)


def test_polar_factor_takes_the_svd_below_the_crossover_and_past_the_guard():
    """Below ``_N_GRAM`` columns, and for rows whose A* A is conditioned past
    ``1 / _GUARD``, the polar factor is ``u @ vh`` of the thin SVD bit for
    bit; so is it for a row of rank below n. Rows conditioned just inside the
    guard take the Gram route, and still come out orthonormal."""
    rng = np.random.default_rng(7)
    n_gram, guard = qsd.linalg._N_GRAM, qsd.linalg._GUARD
    singular = complex_normal(rng, 64, 32)
    singular[:, 5] = singular[:, 9]
    svd_rows = [complex_normal(rng, rows, n) for n in (4, 16, n_gram - 1) for rows in (n, 2 * n)]
    svd_rows += [row_of_condition(n, 4 / guard, n) for n in (n_gram, 128)] + [singular]
    for b in svd_rows:
        assert same_bits(qsd.linalg.polar_factor(b), svd_polar(b)), b.shape
    assert qsd.linalg.polar_excess(2 * n_gram, n_gram - 1) == 0.0
    for n in (n_gram, 128):
        b = row_of_condition(n, 0.25 / guard, n)
        q = qsd.linalg.polar_factor(b)
        assert not same_bits(q, svd_polar(b))
        assert maxabs(q.conj().T @ q - np.eye(n)) <= 3 * n * EPS + qsd.linalg.polar_excess(2 * n, n)


def test_polar_factor_of_a_stack_is_that_of_its_row():
    """An (m, r, n) stack gets the polar factor of its (m r, n) row, in the
    stack's shape, on both routes; a single matrix is its own row."""
    rng = np.random.default_rng(8)
    for n in (4, 32):
        stack = complex_normal(rng, 4, n // 2, n)
        q = qsd.linalg.polar_factor(stack)
        assert q.shape == stack.shape
        assert same_bits(q, qsd.linalg.polar_factor(stack.reshape(-1, n)).reshape(stack.shape))


def test_fallback_kernel_takes_the_same_polar_routes(fallback_kernel):
    """On numpy 1.x the Gram route's eigh is ``np.linalg.eigh``; both routes,
    and the guard between them, give what the gufunc kernel gives."""
    rng = np.random.default_rng(9)
    n = qsd.linalg._N_GRAM
    rows = [complex_normal(rng, 2 * n, n), complex_normal(rng, 16, 16), row_of_condition(n, 1e12, 1)]
    for b in rows:
        assert same_bits(fallback_kernel.polar_factor(b), qsd.linalg.polar_factor(b))
