import json

import numpy as np
import pytest

from conftest import ket, pure_ensemble

from qsd import (
    Certificate,
    Ensemble,
    SimResult,
    SolveDiagnostics,
    certify,
    compute_lsm,
    random_ensemble,
    simulate,
    solve_optimal,
    validate,
)
from qsd.linalg import maxabs
from qsd.serialize import (
    certificate_from_wire,
    certificate_to_wire,
    diagnostics_to_wire,
    dumps,
    ensemble_from_wire,
    ensemble_to_wire,
    matrix_from_wire,
    matrix_to_wire,
    povm_from_wire,
    povm_to_wire,
    sim_result_to_wire,
    validation_report_to_wire,
    vnm_report_to_wire,
)
from qsd.vnm import vnm_report


@pytest.fixture(scope="module")
def solved_corpus():
    """Seeded ensembles with their optimal POVMs and certificates: linearly
    independent at n = 8 and n = 32 with flat-Dirichlet priors, a linearly
    dependent draw with n = 4 and m = 5, the skewed ensemble of the CI,
    whose priors go down to 1e-8, and an orthonormal pair written with
    negative zeros."""
    rng = np.random.default_rng(2023)
    ensembles = [
        random_ensemble(n, (n // 4,) * 4, priors=rng.dirichlet(np.ones(4)), seed=n,
                        require_independent=True)
        for n in (8, 32)
    ]
    ensembles.append(random_ensemble(4, (2, 1, 3, 2, 1), seed=7))
    ensembles.append(random_ensemble(8, (2, 2, 2, 2), priors=(0.99999997, 1e-8, 1e-8, 1e-8),
                                     seed=3, require_independent=True))
    z = complex(-0.0, -0.0)
    ensembles.append(Ensemble([0.5, 0.5], [[[1, z], [z, z]], [[z, z], [z, 1]]]))
    return [(e, *solve_optimal(e)[:2]) for e in ensembles]


def same_bytes(a, b):
    """Equal shapes and bytes: signed zeros and the last bit count."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def same_floats(a, b):
    """Equal by ``==`` and in sign, so that -0.0 differs from 0.0."""
    a, b = np.atleast_1d(a).tolist(), np.atleast_1d(b).tolist()
    return a == b and np.array_equal(np.signbit(a), np.signbit(b))


def test_matrix_round_trip():
    m = np.array([[1 + 2j, 0.25], [-0.25j, 1e-17 + 1j * np.pi]])
    wire = json.loads(dumps(matrix_to_wire(m)))
    assert np.array_equal(matrix_from_wire(wire), m)


def test_matrix_wire_shape():
    wire = matrix_to_wire(np.eye(2))
    assert wire == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


@pytest.mark.parametrize(
    "bad",
    [
        [],
        [[1.0, 0.0]],
        [[[1.0]]],
        [[[1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]],
        "nope",
        [[[None, 0]]],
        [[[0, None]]],
        [[[1.0, 0.0], None]],
        [[["x", 0]]],
        [[[{"re": 1}, 0]]],
        [[[10**400, 0]]],
        [[[1.0, 0.0, 0.0]]],
        [[]],
        [[[float("nan"), 0.0]]],
        [[[0.0, float("inf")]]],
        [[[1.0, 0.0], [-float("inf"), 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        [[[True, False]]],
        [[[True, 0.5]]],
        [[[1, False]]],
    ],
)
def test_matrix_from_wire_rejects_malformed(bad):
    with pytest.raises(ValueError):
        matrix_from_wire(bad)


def per_entry_matrix_to_wire(m):
    """The encoder as one comprehension over entries: the oracle."""
    a = np.asarray(m, dtype=np.complex128)
    return [[[float(x.real), float(x.imag)] for x in row] for row in a]


def test_matrix_to_wire_bytes_match_per_entry_encoder():
    tiny = 5e-324
    special = np.array(
        [[-0.0 + 0.0j, complex(0.0, -0.0), complex(tiny, -tiny)],
         [complex(-0.0, -0.0), 2.2250738585072014e-308 + 1e-310j, 1 / 3 - 1j * np.pi]]
    )
    rng = np.random.default_rng(5)
    rand = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    for m in (special, rand, rand.T, rand.real, np.eye(3, dtype=np.float32)):
        assert dumps(matrix_to_wire(m)) == dumps(per_entry_matrix_to_wire(m))
    assert "-0.0" in dumps(matrix_to_wire(special))
    assert "5e-324" in dumps(matrix_to_wire(special))


def test_ensemble_round_trip(solved_corpus):
    e = random_ensemble(3, (2, 1), seed=8, require_independent=True)
    wire = json.loads(dumps(ensemble_to_wire(e)))
    back = ensemble_from_wire(wire)
    assert back.dim == e.dim
    assert np.array_equal(back.priors, e.priors)
    assert np.array_equal(back.rhos, e.rhos)
    for e, _, _ in solved_corpus:
        back = ensemble_from_wire(json.loads(dumps(ensemble_to_wire(e))))
        assert same_bytes(back.priors, e.priors)
        assert same_bytes(back.rhos, e.rhos)


def test_ensemble_from_wire_rejects_malformed():
    with pytest.raises(ValueError):
        ensemble_from_wire({"dim": 2})
    with pytest.raises(ValueError):
        ensemble_from_wire({"dim": 2, "states": [{"prior": 0.5}]})
    with pytest.raises(ValueError):
        ensemble_from_wire([1, 2, 3])
    rho = matrix_to_wire(np.eye(2) / 2)
    for bad_state in ({"prior": None, "rho": rho}, {"prior": [1.0], "rho": rho},
                      {"prior": 1.0, "rho": [[[None, 0], [0, 0]], [[0, 0], [0.5, 0]]]}):
        with pytest.raises(ValueError):
            ensemble_from_wire({"dim": 2, "states": [bad_state]})
    with pytest.raises(ValueError):
        ensemble_from_wire({"dim": None, "states": [{"prior": 1.0, "rho": rho}]})
    with pytest.raises(ValueError):
        ensemble_from_wire({"dim": 1e400, "states": [{"prior": 1.0, "rho": rho}]})
    for bad_prior in (float("nan"), float("inf"), -float("inf"), True, "1.0", 10**400):
        with pytest.raises(ValueError):
            ensemble_from_wire({"dim": 2, "states": [{"prior": bad_prior, "rho": rho}]})
    # dim must be a JSON integer: no strings, floats or booleans
    for bad_dim in ("2", 2.9, 2.0, True):
        with pytest.raises(ValueError):
            ensemble_from_wire({"dim": bad_dim, "states": [{"prior": 1.0, "rho": rho}]})
    with pytest.raises(ValueError):
        ensemble_from_wire({"dim": 3, "states": [{"prior": 1.0, "rho": rho}]})
    one = {"dim": 1, "states": [{"prior": 1, "rho": [[[1, 0]]]}]}
    assert ensemble_from_wire(one).priors.tolist() == [1.0]


def test_povm_round_trip(zero_plus, solved_corpus):
    p = compute_lsm(zero_plus)
    back = povm_from_wire(json.loads(dumps(povm_to_wire(p))))
    assert back.dim == p.dim
    assert back.ranks == p.ranks
    for a, b in zip(p.operators, back.operators):
        assert np.array_equal(a, b)
    for _, povm, _ in solved_corpus:
        back = povm_from_wire(json.loads(dumps(povm_to_wire(povm))))
        assert same_bytes(back.operators, povm.operators)


def test_povm_from_wire_checks_dim():
    with pytest.raises(ValueError):
        povm_from_wire({"dim": 3, "operators": [matrix_to_wire(np.eye(2))]})
    with pytest.raises(ValueError):
        povm_from_wire({"dim": 1, "operators": [[[[None, 0]]]]})
    with pytest.raises(ValueError):
        povm_from_wire({"dim": 1, "operators": [[[[float("nan"), 0]]]]})
    for bad_dim in ("1", 1.0, 1.5, True, None):
        with pytest.raises(ValueError):
            povm_from_wire({"dim": bad_dim, "operators": [[[[1.0, 0]]]]})
    with pytest.raises(ValueError, match=r"povm document must be a JSON object"):
        povm_from_wire([[[[1.0, 0]]]])
    with pytest.raises(ValueError, match=r"povm operators must be a non-empty list"):
        povm_from_wire({"dim": 1, "operators": []})
    assert povm_from_wire({"dim": 1, "operators": [[[[1.0, 0]]]]}).dim == 1


def test_certificate_round_trip(zero_plus, solved_corpus):
    povm, cert, _ = solve_optimal(zero_plus)
    wire = json.loads(dumps(certificate_to_wire(cert)))
    assert set(wire) == {"dual_value", "gap", "feas_margins", "slack_residuals", "x_hat"}
    back = certificate_from_wire(wire)
    assert back.dual_value == cert.dual_value
    assert back.gap == cert.gap
    assert back.feas_margins == cert.feas_margins
    assert back.slack_residuals == cert.slack_residuals
    assert maxabs(back.x_hat - cert.x_hat) == 0.0
    # re-certifying from the wire copy reproduces the verdict
    recheck = certify(zero_plus, povm, back.x_hat)
    assert recheck.optimal_at(1e-7)
    # every number field takes only a finite JSON number
    for bad in ("1.5", True, float("nan"), float("inf"), None, [0.0]):
        for key in ("dual_value", "gap"):
            with pytest.raises(ValueError):
                certificate_from_wire({**wire, key: bad})
        for key in ("feas_margins", "slack_residuals"):
            with pytest.raises(ValueError):
                certificate_from_wire({**wire, key: [*wire[key][:-1], bad]})
    with pytest.raises(ValueError):
        certificate_from_wire({**wire, "feas_margins": 0.0})
    with pytest.raises(ValueError, match=r"certificate document must be a JSON object"):
        certificate_from_wire([wire])
    # one margin and one residual per state, of at least one state
    with pytest.raises(ValueError):
        certificate_from_wire({**wire, "feas_margins": [], "slack_residuals": []})
    with pytest.raises(ValueError):
        certificate_from_wire({**wire, "feas_margins": [0.1], "slack_residuals": [0.0] * 3})
    for _, _, cert in solved_corpus:
        back = certificate_from_wire(json.loads(dumps(certificate_to_wire(cert))))
        assert same_bytes(back.x_hat, cert.x_hat)
        for field in ("dual_value", "gap", "feas_margins", "slack_residuals"):
            assert same_floats(getattr(back, field), getattr(cert, field)), field


def test_report_wires_are_json_safe(trine):
    report = validate(trine)
    json.loads(dumps(validation_report_to_wire(report)))
    povm = compute_lsm(trine)
    wire = json.loads(dumps(vnm_report_to_wire(vnm_report(trine, povm))))
    assert wire["is_von_neumann"] is False
    assert len(wire["rank_pairs"]) == 3


def test_report_wire_keys_are_the_fields_in_order(trine):
    """A report's wire form is its fields in declaration order; the
    validation report leaves out ``states_passed``, and the rank pairs are
    objects, one per state."""
    povm, cert, diag = solve_optimal(trine)

    def keys(wire):
        return list(json.loads(dumps(wire)))

    assert keys(certificate_to_wire(cert)) == [
        "dual_value", "gap", "feas_margins", "slack_residuals", "x_hat"]
    assert keys(validation_report_to_wire(validate(trine))) == [
        "psd_margins", "trace_deviations", "hermitian_deviations",
        "prior_sum_deviation", "min_prior", "span_rank", "dim", "passed"]
    report = json.loads(dumps(vnm_report_to_wire(vnm_report(trine, povm))))
    assert list(report) == [
        "idempotency_residuals", "orthogonality_residuals", "completeness_residual",
        "rank_pairs", "tol", "is_von_neumann"]
    assert [list(pair) for pair in report["rank_pairs"]] == [
        ["state_rank", "povm_rank", "equal", "bounded"]] * 3
    assert len(report["orthogonality_residuals"]) == 3
    li = random_ensemble(4, (2, 1, 1), seed=5, require_independent=True)
    li_report = json.loads(dumps(vnm_report_to_wire(vnm_report(li, solve_optimal(li)[0]))))
    assert [list(pair) for pair in li_report["rank_pairs"]] == [
        ["state_rank", "povm_rank", "equal", "bounded"]] * 3
    assert keys(sim_result_to_wire(simulate(trine, povm, trials=100, seed=5))) == [
        "trials", "seed", "counts", "empirical_pd", "std_error"]
    assert keys(diagnostics_to_wire(diag)) == ["iterations", "primal_value", "converged"]


def test_numpy_scalars_encode_as_python_numbers():
    """Reports built from numpy scalars, and a certificate whose x_hat is
    real, encode to the same text as their Python-number twins."""
    counts = np.array([[40, 10], [5, 45]])
    assert dumps(sim_result_to_wire(SimResult(
        trials=np.int64(100), seed=np.int64(5), counts=counts,
        empirical_pd=np.float64(0.85), std_error=np.float64(0.035)))) == dumps(
        sim_result_to_wire(SimResult(trials=100, seed=5, counts=counts,
                                     empirical_pd=0.85, std_error=0.035)))
    assert dumps(diagnostics_to_wire(SolveDiagnostics(
        iterations=np.int64(7), primal_value=np.float64(0.85),
        converged=np.bool_(True)))) == dumps(
        diagnostics_to_wire(SolveDiagnostics(iterations=7, primal_value=0.85,
                                             converged=True)))
    assert dumps(certificate_to_wire(Certificate(
        dual_value=np.float64(1.0), gap=np.float64(0.0),
        feas_margins=(np.float64(0.0), np.float64(-0.0)),
        slack_residuals=(np.float64(0.0), np.float64(1e-17)),
        x_hat=np.eye(2) / 2))) == dumps(certificate_to_wire(Certificate(
            dual_value=1.0, gap=0.0, feas_margins=(0.0, -0.0),
            slack_residuals=(0.0, 1e-17), x_hat=np.eye(2, dtype=complex) / 2)))


def test_float_round_trip_through_json():
    # shortest-repr floats reload to the identical double
    values = [0.1, 1 / 3, np.pi, 1e-300, 0.8535533905932737]
    wire = json.loads(dumps({"values": values}))
    assert wire["values"] == values


def test_state_prior_survives_as_float():
    e = pure_ensemble((1 / 3, 2 / 3), (ket(1, 0), ket(0, 1)))
    back = ensemble_from_wire(json.loads(dumps(ensemble_to_wire(e))))
    assert back.priors[0] == 1 / 3
    assert back.priors[1] == 2 / 3
