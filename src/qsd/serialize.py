"""JSON wire formats.

Matrices are row-major with every entry a two-element [re, im] array.
Serialization goes through ``json.dumps``, whose shortest-repr float encoding
round-trips IEEE doubles losslessly. Decoders accept only finite JSON
numbers where a number is meant and only JSON integers where an integer is
meant (``dim``, simulation trials, seed and counts); booleans and strings are
neither.
"""

from __future__ import annotations

import json
import sys
from itertools import chain

import numpy as np

from .ensemble import Ensemble, ValidationReport
from .lsm import Povm, make_povm
from .optimal import Certificate, SolveDiagnostics
from .sim import SimResult
from .vnm import VnmReport


def dumps(payload) -> str:
    return json.dumps(payload)


def matrix_to_wire(m) -> list:
    a = np.ascontiguousarray(m, dtype=np.complex128)
    # a complex128 is its (re, im) float64 pair in memory
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


def matrix_from_wire(data) -> np.ndarray:
    if not isinstance(data, list) or not data:
        raise ValueError("matrix must be a non-empty list of rows")
    # ragged rows raise ValueError here; null, strings and integers too large
    # for int64 give a non-numeric dtype, and all-boolean entries dtype bool
    a = np.array(data)
    if a.dtype.kind not in "iuf" or a.ndim != 3 or a.shape[2] != 2:
        raise ValueError("matrix must be equal-length rows of [re, im] number pairs")
    # a boolean among numbers takes their dtype, so check the entries' own types
    if not set(map(type, chain.from_iterable(chain.from_iterable(data)))) <= {int, float}:
        raise ValueError("matrix entries must be JSON numbers, not booleans")
    a = a.astype(np.float64, copy=False)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a.view(np.complex128)[..., 0]


def _number_from_wire(x, what: str, integer: bool = False):
    """``x`` as a float, or as an int when ``integer``; raise ``ValueError``
    unless it is a finite JSON number (a JSON integer when ``integer``)."""
    # bool is an int to Python but not a number on the wire; nan, the
    # infinities and integers beyond the double range all fail the bound
    kinds = (int,) if integer else (int, float)
    if type(x) not in kinds or not abs(x) <= sys.float_info.max:
        kind = "JSON integer" if integer else "finite number"
        raise ValueError(f"{what} must be a {kind}, got {x!r}")
    return x if integer else float(x)


def _checked_dim(data, stack_dim: int) -> None:
    """Check the document's declared ``dim`` against its matrices."""
    dim = _number_from_wire(data["dim"], "dim", integer=True)
    if dim != stack_dim:
        raise ValueError(f"declared dim {dim} != matrix dim {stack_dim}")


def ensemble_to_wire(e: Ensemble) -> dict:
    return {
        "dim": e.dim,
        "states": [
            {"prior": prior, "rho": rho}
            for prior, rho in zip(e.priors.tolist(), matrix_to_wire(e.rhos))
        ],
    }


def ensemble_from_wire(data) -> Ensemble:
    if not isinstance(data, dict) or "dim" not in data:
        raise ValueError("ensemble document must be a JSON object with 'dim' and 'states'")
    raw_states = data.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise ValueError("ensemble states must be a non-empty list")
    if not all(isinstance(s, dict) and "prior" in s and "rho" in s for s in raw_states):
        raise ValueError("each state needs 'prior' and 'rho'")
    e = Ensemble(
        [_number_from_wire(s["prior"], "prior") for s in raw_states],
        [matrix_from_wire(s["rho"]) for s in raw_states],
    )
    _checked_dim(data, e.dim)
    return e


def povm_to_wire(p: Povm) -> dict:
    return {"dim": p.dim, "operators": matrix_to_wire(p.operators)}


def povm_from_wire(data) -> Povm:
    if not isinstance(data, dict) or "dim" not in data:
        raise ValueError("povm document must be a JSON object with 'dim' and 'operators'")
    raw_ops = data.get("operators")
    if not isinstance(raw_ops, list) or not raw_ops:
        raise ValueError("povm operators must be a non-empty list")
    p = make_povm([matrix_from_wire(op) for op in raw_ops])
    _checked_dim(data, p.dim)
    return p


def certificate_to_wire(c: Certificate) -> dict:
    return {
        "dual_value": float(c.dual_value),
        "gap": float(c.gap),
        "feas_margins": [float(v) for v in c.feas_margins],
        "slack_residuals": [float(v) for v in c.slack_residuals],
        "x_hat": matrix_to_wire(c.x_hat),
    }


def certificate_from_wire(data) -> Certificate:
    if not isinstance(data, dict):
        raise ValueError("certificate document must be a JSON object")
    try:
        return Certificate(
            x_hat=matrix_from_wire(data["x_hat"]),
            dual_value=_number_from_wire(data["dual_value"], "dual_value"),
            gap=_number_from_wire(data["gap"], "gap"),
            feas_margins=tuple(_number_from_wire(v, "margin") for v in data["feas_margins"]),
            slack_residuals=tuple(
                _number_from_wire(v, "residual") for v in data["slack_residuals"]
            ),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"certificate document has a missing or bad field: {exc}") from None


def validation_report_to_wire(r: ValidationReport) -> dict:
    return {
        "psd_margins": [float(v) for v in r.psd_margins],
        "trace_deviations": [float(v) for v in r.trace_deviations],
        "hermitian_deviations": [float(v) for v in r.hermitian_deviations],
        "prior_sum_deviation": float(r.prior_sum_deviation),
        "min_prior": float(r.min_prior),
        "span_rank": int(r.span_rank),
        "dim": int(r.dim),
        "passed": bool(r.passed),
    }


def vnm_report_to_wire(r: VnmReport) -> dict:
    return {
        "idempotency_residuals": [float(v) for v in r.idempotency_residuals],
        "orthogonality_residuals": [
            [float(v) for v in row] for row in r.orthogonality_residuals
        ],
        "completeness_residual": float(r.completeness_residual),
        "rank_pairs": None
        if r.rank_pairs is None
        else [
            {
                "state_rank": int(pair.state_rank),
                "povm_rank": int(pair.povm_rank),
                "equal": bool(pair.equal),
                "bounded": bool(pair.bounded),
            }
            for pair in r.rank_pairs
        ],
        "tol": float(r.tol),
        "is_von_neumann": bool(r.is_von_neumann),
    }


def sim_result_to_wire(r: SimResult) -> dict:
    return {
        "trials": int(r.trials),
        "seed": int(r.seed),
        "counts": [[int(v) for v in row] for row in r.counts],
        "empirical_pd": float(r.empirical_pd),
        "std_error": float(r.std_error),
    }


def sim_result_from_wire(data) -> SimResult:
    try:
        return SimResult(
            trials=_number_from_wire(data["trials"], "trials", integer=True),
            seed=_number_from_wire(data["seed"], "seed", integer=True),
            counts=np.array(
                [[_number_from_wire(v, "count", integer=True) for v in row]
                 for row in data["counts"]],
                dtype=np.int64,
            ),
            empirical_pd=_number_from_wire(data["empirical_pd"], "empirical_pd"),
            std_error=_number_from_wire(data["std_error"], "std_error"),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"simulation document has a missing or bad field: {exc}") from None


def diagnostics_to_wire(d: SolveDiagnostics) -> dict:
    return {
        "iterations": int(d.iterations),
        "primal_value": float(d.primal_value),
        "converged": bool(d.converged),
    }


def solve_result_to_wire(p: Povm, c: Certificate, d: SolveDiagnostics) -> dict:
    return {
        "povm": povm_to_wire(p),
        "certificate": certificate_to_wire(c),
        "diagnostics": diagnostics_to_wire(d),
    }


def solve_result_from_wire(data) -> tuple[Povm, Certificate, dict]:
    if not isinstance(data, dict):
        raise ValueError("solve document must be a JSON object")
    try:
        return (
            povm_from_wire(data["povm"]),
            certificate_from_wire(data["certificate"]),
            dict(data["diagnostics"]),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"solve document has a missing or bad field: {exc}") from None
