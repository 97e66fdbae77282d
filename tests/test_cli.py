import io
import json
import subprocess
import sys
import warnings

import numpy as np

import pytest

from conftest import ket, near_collinear_pair, pure_ensemble, trine_vectors

from qsd import Ensemble, Povm, certify, compute_lsm, random_ensemble, solve_optimal, validate
from qsd.cli import CommandResult, dispatch
from qsd.serialize import (
    certificate_to_wire,
    dumps,
    ensemble_from_wire,
    ensemble_to_wire,
    matrix_to_wire,
    povm_from_wire,
    povm_to_wire,
    solve_result_to_wire,
    validation_report_to_wire,
)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(dumps(payload))
    return str(path)


def ortho_pair_files(tmp_path):
    e = pure_ensemble((0.5, 0.5), (ket(1, 0), ket(0, 1)))
    povm = compute_lsm(e)
    return (
        write_json(tmp_path, "ensemble.json", ensemble_to_wire(e)),
        write_json(tmp_path, "povm.json", povm_to_wire(povm)),
        e,
        povm,
    )


def test_gen_lsm_checkvnm_pipeline(monkeypatch, tmp_path):
    gen = dispatch(
        ["gen", "--dim", "2", "--ranks", "1,1", "--priors", "uniform",
         "--seed", "1", "--independent"]
    )
    assert gen.exit_code == 0
    ensemble_from_wire(json.loads(gen.stdout))  # round-trips

    monkeypatch.setattr(sys, "stdin", io.StringIO(gen.stdout))
    lsm = dispatch(["lsm", "-"])
    assert lsm.exit_code == 0
    povm_from_wire(json.loads(lsm.stdout))

    e_path = write_json(tmp_path, "e.json", json.loads(gen.stdout))
    p_path = write_json(tmp_path, "p.json", json.loads(lsm.stdout))
    check = dispatch(["check-vnm", e_path, p_path])
    assert check.exit_code == 0
    assert json.loads(check.stdout)["is_von_neumann"] is True


def test_pd_orthogonal_pair(tmp_path):
    e_path, p_path, _, _ = ortho_pair_files(tmp_path)
    result = dispatch(["pd", e_path, p_path])
    assert result.exit_code == 0
    assert json.loads(result.stdout) == {"pd": 1.0}


def test_certify_zero_dual_exits_one(tmp_path):
    e_path, p_path, e, povm = ortho_pair_files(tmp_path)
    from qsd import certify

    bogus = certify(e, povm, np.zeros((2, 2)))
    c_path = write_json(tmp_path, "cert.json", certificate_to_wire(bogus))
    result = dispatch(["certify", e_path, p_path, c_path])
    assert result.exit_code == 1
    wire = json.loads(result.stdout)
    assert min(wire["feas_margins"]) < -0.4
    assert "infeasible" in result.stderr


def test_certify_refuses_a_certificate_without_one_entry_per_state(tmp_path):
    # certify reads only x_hat from the file, but a certificate that has no
    # margins, or fewer margins than residuals, is a malformed document
    e_path, p_path, e, povm = ortho_pair_files(tmp_path)
    _, cert, _ = solve_optimal(e)
    wire = certificate_to_wire(cert)
    for margins, residuals in (([], []), ([0.1], [0.0] * 3)):
        bad = {**wire, "feas_margins": margins, "slack_residuals": residuals}
        c_path = write_json(tmp_path, "cert.json", bad)
        result = dispatch(["certify", e_path, p_path, c_path])
        assert result.exit_code == 2
        assert result.stdout == "" and result.stderr.startswith("error:")


def test_solve_then_certify_self_consistent(tmp_path):
    # priors down to 1e-8 make the update's Lambda near singular; the solved
    # measurement must still sum to the identity for certify and check-vnm
    skewed = dispatch(
        ["gen", "--dim", "8", "--ranks", "2,2,2,2", "--priors",
         "0.99999997,1e-8,1e-8,1e-8", "--seed", "3", "--independent"]
    )
    assert skewed.exit_code == 0
    pair = ensemble_to_wire(pure_ensemble((0.7, 0.3), (ket(1, 0), ket(1, 1))))
    for name, doc in (("pair", pair), ("skewed", json.loads(skewed.stdout))):
        e_path = write_json(tmp_path, f"{name}.json", doc)
        out_path = str(tmp_path / f"{name}_povm.json")
        cert_path = str(tmp_path / f"{name}_cert.json")
        solved = dispatch(
            ["solve", e_path, "--out", out_path, "--cert", cert_path]
        )
        assert solved.exit_code == 0
        assert json.loads(solved.stdout)["diagnostics"]["converged"] is True

        recheck = dispatch(
            ["certify", e_path, out_path, cert_path, "--tol", "1e-8"]
        )
        assert recheck.exit_code == 0, recheck.stderr
        assert "feasible and slack" in recheck.stderr
        check = dispatch(["check-vnm", e_path, out_path])
        assert check.exit_code == 0, check.stderr
        assert json.loads(check.stdout)["is_von_neumann"] is True


def test_solve_stdout_and_files_are_the_encoded_solve(tmp_path):
    # stdout and the two files are one encoding of the same solve, byte for
    # byte, for a converged solve and for one that runs out of budget
    e = random_ensemble(3, (2, 2, 1, 2), seed=1)
    e_path = write_json(tmp_path, "e.json", ensemble_to_wire(e))
    out_path, cert_path = str(tmp_path / "povm.json"), str(tmp_path / "cert.json")
    for budget, code in ((10000, 0), (5, 1)):
        result = dispatch(["solve", e_path, "--max-iter", str(budget),
                           "--out", out_path, "--cert", cert_path])
        assert result.exit_code == code
        wire = solve_result_to_wire(*solve_optimal(e, max_iter=budget))
        assert result.stdout == dumps(wire)
        with open(out_path) as fh:
            assert fh.read() == dumps(wire["povm"]) + "\n"
        with open(cert_path) as fh:
            assert fh.read() == dumps(wire["certificate"]) + "\n"


def test_lsm_out_file_holds_the_printed_text(tmp_path):
    e_path, _, e, _ = ortho_pair_files(tmp_path)
    out_path = tmp_path / "lsm.json"
    result = dispatch(["lsm", e_path, "--out", str(out_path)])
    assert result.exit_code == 0
    assert result.stdout == dumps(povm_to_wire(compute_lsm(e)))
    # the console script prints stdout with one newline, as the file ends
    assert out_path.read_text() == result.stdout + "\n"


def test_check_vnm_of_the_trine_optimum_exits_one(tmp_path):
    # the trine's optimum is three rank-1 operators on a qubit, not projective
    trine = pure_ensemble((1 / 3,) * 3, trine_vectors())
    e_path = write_json(tmp_path, "e.json", ensemble_to_wire(trine))
    p_path = write_json(tmp_path, "p.json", povm_to_wire(solve_optimal(trine)[0]))
    result = dispatch(["check-vnm", e_path, p_path])
    assert result.exit_code == 1
    assert json.loads(result.stdout)["is_von_neumann"] is False
    assert result.stderr == "measurement is not Von Neumann at the given tolerance"


@pytest.mark.parametrize("route, stderr", [
    ("rank above dim", "error: need integers, dim >= 1 and every rank in [1, dim], got 2, (3,)"),
    ("priors off one", "error: priors sum to 0.6, expected 1"),
    ("pd of another dim", "error: ensemble dim 3 != povm dim 2"),
    ("pd of another count", "error: 3 states vs 2 outcomes"),
    ("certify x_hat shape", "error: dual operator has shape (3, 3), expected (2, 2)"),
])
def test_bad_arguments_exit_two_with_their_message(tmp_path, route, stderr):
    """Every bad argument is a ValueError: exit 2, nothing on stdout and the
    message on stderr."""
    e_path, p_path, e, povm = ortho_pair_files(tmp_path)
    e3 = pure_ensemble((0.5, 0.5), (ket(1, 0, 0), ket(0, 1, 0)))
    trine = pure_ensemble((1 / 3,) * 3, trine_vectors())
    cert = {**certificate_to_wire(certify(e, povm, np.eye(2))), "x_hat": matrix_to_wire(np.eye(3))}
    argv = {
        "rank above dim": ["gen", "--dim", "2", "--ranks", "3", "--seed", "0"],
        "priors off one": ["gen", "--dim", "2", "--ranks", "1,1", "--priors", "0.3,0.3",
                           "--seed", "0"],
        "pd of another dim": ["pd", write_json(tmp_path, "e3.json", ensemble_to_wire(e3)), p_path],
        "pd of another count": ["pd", write_json(tmp_path, "trine.json", ensemble_to_wire(trine)),
                                p_path],
        "certify x_hat shape": ["certify", e_path, p_path,
                                write_json(tmp_path, "cert.json", cert)],
    }[route]
    assert dispatch(argv) == CommandResult(2, "", stderr)


@pytest.mark.parametrize("broken", ["zero", "half"])
def test_certify_rejects_a_non_povm(tmp_path, broken):
    # the solver's own certificate is feasible, and slack with any operators
    # that vanish where it is tight; it proves nothing unless they form a POVM
    e = random_ensemble(4, (2, 1, 1), seed=7, require_independent=True)
    povm, cert, _ = solve_optimal(e)
    ops = np.zeros((3, 4, 4)) if broken == "zero" else 0.5 * povm.operators
    e_path = write_json(tmp_path, "e.json", ensemble_to_wire(e))
    p_path = write_json(tmp_path, "p.json", povm_to_wire(Povm(ops)))
    c_path = write_json(tmp_path, "c.json", certificate_to_wire(cert))
    result = dispatch(["certify", e_path, p_path, c_path])
    assert result.exit_code == 1
    assert min(json.loads(result.stdout)["feas_margins"]) >= -1e-7
    residual = 1.0 if broken == "zero" else 0.5
    assert result.stderr.startswith(f"not a POVM (completeness residual {residual:.3e}")
    assert "infeasible" not in result.stderr


def test_solve_not_converged_exits_one(tmp_path):
    e = pure_ensemble((0.7, 0.3), (ket(1, 0), ket(1, 1)))
    e_path = write_json(tmp_path, "e.json", ensemble_to_wire(e))
    result = dispatch(["solve", e_path, "--max-iter", "1"])
    assert result.exit_code == 1
    wire = json.loads(result.stdout)
    assert set(wire["diagnostics"]) == {"iterations", "primal_value", "converged"}
    assert wire["diagnostics"]["converged"] is False
    gap = wire["certificate"]["gap"]
    assert gap > 0
    assert result.stderr == f"not converged after 1 iterations (certified gap {gap:.3e})"


def test_validate_failure_exits_one(tmp_path):
    e = pure_ensemble((0.6, 0.6), (ket(1, 0), ket(0, 1)))
    e_path = write_json(tmp_path, "e.json", ensemble_to_wire(e))
    result = dispatch(["validate", e_path])
    assert result.exit_code == 1
    assert json.loads(result.stdout)["passed"] is False


def test_validate_pass(tmp_path):
    e_path, _, _, _ = ortho_pair_files(tmp_path)
    result = dispatch(["validate", e_path])
    assert result.exit_code == 0
    assert json.loads(result.stdout)["passed"] is True


def test_simulate_cli(tmp_path):
    e_path, p_path, _, _ = ortho_pair_files(tmp_path)
    result = dispatch(
        ["simulate", e_path, p_path, "--trials", "200", "--seed", "9"]
    )
    assert result.exit_code == 0
    res = json.loads(result.stdout)
    assert res["trials"] == 200 and res["empirical_pd"] == 1.0


def test_span_deficient_is_domain_failure(tmp_path):
    e = pure_ensemble((0.5, 0.5), (ket(1, 0, 0), ket(1, 1, 0)))
    e_path = write_json(tmp_path, "e.json", ensemble_to_wire(e))
    result = dispatch(["lsm", e_path])
    assert result.exit_code == 1
    wire = json.loads(result.stdout)
    assert wire["passed"] is False and wire["span_rank"] == 2


@pytest.mark.parametrize("command", ["lsm", "solve"])
def test_near_collinear_pair_fails_validation(tmp_path, command):
    e = near_collinear_pair(1e-7)
    e_path = write_json(tmp_path, "e.json", ensemble_to_wire(e))
    result = dispatch([command, e_path])
    assert result.exit_code == 1
    assert json.loads(result.stdout) == validation_report_to_wire(validate(e))
    assert json.loads(result.stdout)["span_rank"] == 1
    assert result.stderr == "ensemble failed validation"


def test_solve_indefinite_state_reports_validation(tmp_path):
    """rho_bar of this ensemble has rank 1, but the report is what fails."""
    e = Ensemble([0.5, 0.5], [np.diag([1.5, -0.5]), np.eye(2) / 2])
    e_path = write_json(tmp_path, "e.json", ensemble_to_wire(e))
    result = dispatch(["solve", e_path])
    assert result.exit_code == 1
    assert json.loads(result.stdout) == validation_report_to_wire(validate(e))
    assert result.stderr == "ensemble failed validation"


def test_solve_invalid_priors_reports_validation(tmp_path):
    e = pure_ensemble((0.6, 0.6), (ket(1, 0), ket(0, 1)))
    e_path = write_json(tmp_path, "e.json", ensemble_to_wire(e))
    result = dispatch(["solve", e_path])
    assert result.exit_code == 1
    wire = json.loads(result.stdout)
    assert wire["passed"] is False and wire["span_rank"] == 2


def test_simulate_invalid_priors_reports_validation(tmp_path):
    vectors = (ket(1, 0, 0), ket(0, 1, 0), ket(0, 0, 1))
    e = pure_ensemble((0.2, 0.2, 0.2), vectors)
    povm = Povm([np.outer(v, v.conj()) for v in vectors])
    e_path = write_json(tmp_path, "e.json", ensemble_to_wire(e))
    p_path = write_json(tmp_path, "p.json", povm_to_wire(povm))
    result = dispatch(["simulate", e_path, p_path, "--trials", "1000", "--seed", "1"])
    assert result.exit_code == 1
    assert json.loads(result.stdout) == validation_report_to_wire(validate(e))
    assert result.stderr == "ensemble failed validation"


def test_null_numbers_exit_two(tmp_path):
    rho = [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]
    nan_rho = [[[float("nan"), 0], [0, 0]], [[0, 0], [0.5, 0]]]
    docs = [
        {"dim": 1, "states": [{"prior": 1.0, "rho": [[[None, 0]]]}]},
        {"dim": 2, "states": [{"prior": None, "rho": rho}]},
        # NaN and Infinity are not JSON, and dim must be a JSON integer
        {"dim": 2, "states": [{"prior": 1.0, "rho": nan_rho}]},
        {"dim": 2, "states": [{"prior": float("inf"), "rho": rho}]},
        {"dim": "2", "states": [{"prior": 1.0, "rho": rho}]},
        {"dim": 2.9, "states": [{"prior": 1.0, "rho": rho}]},
        {"dim": True, "states": [{"prior": 1.0, "rho": [[[1.0, 0]]]}]},
        # booleans are not numbers, alone or among numbers
        {"dim": 1, "states": [{"prior": 1.0, "rho": [[[True, False]]]}]},
        {"dim": 1, "states": [{"prior": 1.0, "rho": [[[True, 0.0]]]}]},
    ]
    for doc in docs:
        for command in ("validate", "solve"):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result = dispatch([command, write_json(tmp_path, "e.json", doc)])
            assert result.exit_code == 2, (command, doc)
            assert result.stdout == "" and result.stderr.startswith("error:")
    e_path, _, _, _ = ortho_pair_files(tmp_path)
    bad_povm = {"dim": 2, "operators": [[[[None, 0], [0, 0]], [[0, 0], [0, 0]]], rho]}
    result = dispatch(["pd", e_path, write_json(tmp_path, "p.json", bad_povm)])
    assert result.exit_code == 2
    assert result.stdout == "" and result.stderr.startswith("error:")


def test_unknown_command_exits_two():
    result = dispatch(["frobnicate"])
    assert result.exit_code == 2
    assert result.stdout == ""


def test_malformed_json_exits_two(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    result = dispatch(["validate", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


def test_missing_file_exits_two():
    result = dispatch(["validate", "/nonexistent/e.json"])
    assert result.exit_code == 2


def test_gen_bad_ranks_exits_two():
    result = dispatch(
        ["gen", "--dim", "2", "--ranks", "1,1,1", "--seed", "0", "--independent"]
    )
    assert result.exit_code == 2
    # a rank outside [1, dim], or no dimension at all, is no ensemble
    for dim, ranks in (("0", "1"), ("2", "3,5")):
        result = dispatch(["gen", "--dim", dim, "--ranks", ranks, "--seed", "0"])
        assert result.exit_code == 2 and result.stdout == ""
        assert "dim" in result.stderr


def test_negative_seed_exits_two(tmp_path):
    e_path, p_path, _, _ = ortho_pair_files(tmp_path)
    for argv in (["gen", "--dim", "2", "--ranks", "1,1", "--seed", "-1"],
                 ["simulate", e_path, p_path, "--trials", "10", "--seed", "-1"]):
        result = dispatch(argv)
        assert result.exit_code == 2 and result.stdout == "", argv
        assert "seed" in result.stderr


def test_gen_bad_rank_format_exits_two():
    result = dispatch(["gen", "--dim", "2", "--ranks", "a,b", "--seed", "0"])
    assert result.exit_code == 2


def test_gen_priors_that_are_not_numbers_exit_two():
    result = dispatch(["gen", "--dim", "2", "--ranks", "1,1", "--priors", "0.5,x", "--seed", "0"])
    assert result == CommandResult(
        2, "", "error: argument --priors: must be 'uniform' or numbers: '0.5,x'"
    )


@pytest.mark.parametrize("priors", ["nan,1", "1,nan", "inf,1"])
def test_gen_non_finite_priors_exit_two(priors):
    result = dispatch(["gen", "--dim", "2", "--ranks", "1,1", "--priors", priors, "--seed", "0"])
    assert result.exit_code == 2
    assert result.stdout == "" and result.stderr.startswith("error:")


def test_gen_explicit_priors(tmp_path):
    result = dispatch(
        ["gen", "--dim", "2", "--ranks", "1,1", "--priors", "0.25,0.75",
         "--seed", "4", "--independent"]
    )
    assert result.exit_code == 0
    e = ensemble_from_wire(json.loads(result.stdout))
    assert e.priors[0] == 0.25


def test_mismatched_inputs_exit_two(tmp_path):
    e3 = pure_ensemble((0.5, 0.5), (ket(1, 0, 0), ket(0, 1, 0)))
    e_path = write_json(tmp_path, "e3.json", ensemble_to_wire(e3))
    _, p_path, _, _ = ortho_pair_files(tmp_path)
    result = dispatch(["pd", e_path, p_path])
    assert result.exit_code == 2


def test_console_entry_point(tmp_path):
    e_path, p_path, _, _ = ortho_pair_files(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "qsd.cli", "pd", e_path, p_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"pd": 1.0}


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1e-8", "-inf"])
def test_tolerances_that_prove_nothing_exit_two(tmp_path, tol):
    e_path, p_path, e, povm = ortho_pair_files(tmp_path)
    from qsd import certify

    c_path = write_json(tmp_path, "cert.json", certificate_to_wire(certify(e, povm, np.eye(2))))
    for argv in (["solve", e_path], ["certify", e_path, p_path, c_path],
                 ["check-vnm", e_path, p_path]):
        result = dispatch(argv + ["--tol", tol])
        assert result.exit_code == 2, argv
        assert result.stdout == "" and "--tol" in result.stderr


def test_negative_iteration_budget_exits_two(tmp_path):
    e_path, _, _, _ = ortho_pair_files(tmp_path)
    result = dispatch(["solve", e_path, "--max-iter", "-1"])
    assert result.exit_code == 2
    assert result.stdout == "" and "--max-iter" in result.stderr
    assert dispatch(["solve", e_path, "--max-iter", "0"]).exit_code == 0
