"""Command-line front-end over the JSON formats.

Machine-first: JSON on stdout, human diagnostics on stderr. Exit 0 on
success, 1 on domain failure (validation/check failed, not converged,
infeasible certificate, a certified measurement that is not a POVM), 2 on
usage or format errors. Stdout is valid JSON whenever the exit code is 0 or
1. A ``-`` file argument reads stdin.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import serialize
from .ensemble import random_ensemble, validate
from .errors import (
    BadPriorsError,
    BadRanksError,
    CountMismatchError,
    DimMismatchError,
    InvalidEnsembleError,
    QsdError,
)
from .lsm import compute_lsm
from .optimal import certify, prob_correct, solve_optimal
from .sim import simulate
from .vnm import check_povm, vnm_report


@dataclass(frozen=True)
class CommandResult:
    exit_code: int
    stdout: str
    stderr: str


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _tolerance(text: str) -> float:
    """A finite positive float; a tolerance of 0, inf or nan proves nothing."""
    tol = float(text)
    if not 0.0 < tol < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text!r}")
    return tol


def _iteration_budget(text: str) -> int:
    budget = int(text)
    if budget < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return budget


def _build_parser() -> _Parser:
    parser = _Parser(prog="qsd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check ensemble invariants")
    p.add_argument("ensemble")

    p = sub.add_parser("gen", help="generate a seeded random ensemble")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--ranks", required=True, help="comma-separated state ranks")
    p.add_argument("--priors", default="uniform",
                   help="'uniform' or comma-separated probabilities")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--independent", action="store_true")

    p = sub.add_parser("lsm", help="least-squares measurement")
    p.add_argument("ensemble")
    p.add_argument("--out")

    p = sub.add_parser("solve", help="optimal measurement with certificate")
    p.add_argument("ensemble")
    p.add_argument("--tol", type=_tolerance, default=1e-8)
    p.add_argument("--max-iter", type=_iteration_budget, default=10000)
    p.add_argument("--out")
    p.add_argument("--cert")

    p = sub.add_parser("certify", help="re-check an optimality certificate")
    p.add_argument("ensemble")
    p.add_argument("povm")
    p.add_argument("cert")
    p.add_argument("--tol", type=_tolerance, default=1e-7)

    p = sub.add_parser("pd", help="probability of correct detection")
    p.add_argument("ensemble")
    p.add_argument("povm")

    p = sub.add_parser("check-vnm", help="Von Neumann structure report")
    p.add_argument("ensemble")
    p.add_argument("povm")
    p.add_argument("--tol", type=_tolerance, default=1e-6)

    p = sub.add_parser("simulate", help="Monte Carlo detection experiment")
    p.add_argument("ensemble")
    p.add_argument("povm")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    return parser


def _read_document(path: str):
    if path == "-":
        return json.loads(sys.stdin.read())
    with open(path) as fh:
        return json.loads(fh.read())


def _load_ensemble(path: str):
    return serialize.ensemble_from_wire(_read_document(path))


def _load_povm(path: str):
    return serialize.povm_from_wire(_read_document(path))


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(serialize.dumps(payload) + "\n")


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise _UsageError(f"{what} must be comma-separated integers: {text!r}")


def _cmd_validate(args):
    report = validate(_load_ensemble(args.ensemble))
    code = 0 if report.passed else 1
    return serialize.validation_report_to_wire(report), code, ""


def _cmd_gen(args):
    ranks = _parse_int_list(args.ranks, "--ranks")
    if args.priors == "uniform":
        priors = "uniform"
    else:
        try:
            priors = [float(part) for part in args.priors.split(",") if part != ""]
        except ValueError:
            raise _UsageError(f"--priors must be numbers: {args.priors!r}")
    e = random_ensemble(
        dim=args.dim,
        ranks=ranks,
        priors=priors,
        seed=args.seed,
        require_independent=args.independent,
    )
    return serialize.ensemble_to_wire(e), 0, ""


def _cmd_lsm(args):
    payload = serialize.povm_to_wire(compute_lsm(_load_ensemble(args.ensemble)))
    if args.out:
        _write_json(args.out, payload)
    return payload, 0, ""


def _cmd_solve(args):
    e = _load_ensemble(args.ensemble)
    povm, cert, diag = solve_optimal(e, tol=args.tol, max_iter=args.max_iter)
    payload = serialize.solve_result_to_wire(povm, cert, diag)
    if args.out:
        _write_json(args.out, payload["povm"])
    if args.cert:
        _write_json(args.cert, payload["certificate"])
    if diag.converged:
        return payload, 0, ""
    note = f"not converged after {diag.iterations} iterations (certified gap {cert.gap:.3e})"
    return payload, 1, note


def _cmd_certify(args):
    e = _load_ensemble(args.ensemble)
    p = _load_povm(args.povm)
    given = serialize.certificate_from_wire(_read_document(args.cert))
    cert = certify(e, p, given.x_hat, tol=args.tol)
    payload = serialize.certificate_to_wire(cert)
    # the certificate bounds P_d only over PSD operators that sum to I
    check = check_povm(p, tol=args.tol)
    parts = []
    if not check.passed:
        parts.append(
            f"not a POVM (completeness residual {check.completeness_residual:.3e}, "
            f"min operator margin {min(check.psd_margins):.3e})"
        )
    if not cert.feasible_at(args.tol):
        parts.append(f"infeasible (min margin {min(cert.feas_margins):.3e})")
    if not cert.slack_at(args.tol):
        parts.append(f"slack violated (max residual {max(cert.slack_residuals):.3e})")
    if not parts:
        return payload, 0, "certificate is feasible and slack"
    return payload, 1, "; ".join(parts)


def _cmd_pd(args):
    e = _load_ensemble(args.ensemble)
    p = _load_povm(args.povm)
    return {"pd": prob_correct(e, p)}, 0, ""


def _cmd_check_vnm(args):
    e = _load_ensemble(args.ensemble)
    p = _load_povm(args.povm)
    report = vnm_report(e, p, tol=args.tol)
    payload = serialize.vnm_report_to_wire(report)
    if report.is_von_neumann:
        return payload, 0, ""
    return payload, 1, "measurement is not Von Neumann at the given tolerance"


def _cmd_simulate(args):
    e = _load_ensemble(args.ensemble)
    p = _load_povm(args.povm)
    result = simulate(e, p, trials=args.trials, seed=args.seed)
    return serialize.sim_result_to_wire(result), 0, ""


_HANDLERS = {
    "validate": _cmd_validate,
    "gen": _cmd_gen,
    "lsm": _cmd_lsm,
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "pd": _cmd_pd,
    "check-vnm": _cmd_check_vnm,
    "simulate": _cmd_simulate,
}

# Structurally bad inputs or arguments: the caller's request never made sense.
_FORMAT_ERRORS = (
    json.JSONDecodeError,
    ValueError,
    OSError,
    BadRanksError,
    BadPriorsError,
    DimMismatchError,
    CountMismatchError,
)


def dispatch(argv) -> CommandResult:
    """Run one command; never raises for bad input or domain failures."""
    try:
        args = _build_parser().parse_args(list(argv))
    except _UsageError as exc:
        return CommandResult(2, "", f"error: {exc}")
    try:
        payload, code, note = _HANDLERS[args.command](args)
    except _UsageError as exc:
        return CommandResult(2, "", f"error: {exc}")
    except InvalidEnsembleError as exc:
        payload = serialize.validation_report_to_wire(exc.report)
        return CommandResult(1, serialize.dumps(payload), "ensemble failed validation")
    except _FORMAT_ERRORS as exc:
        return CommandResult(2, "", f"error: {exc}")
    except QsdError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        return CommandResult(1, serialize.dumps(payload), str(exc))
    return CommandResult(code, serialize.dumps(payload), note)


def main() -> None:
    result = dispatch(sys.argv[1:])
    if result.stdout:
        print(result.stdout)
    if result.stderr:
        print(result.stderr, file=sys.stderr)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
