"""JSON wire formats.

Matrices are row-major with every entry a two-element [re, im] array.
Serialization goes through ``json.dumps``, whose shortest-repr float encoding
round-trips IEEE doubles losslessly. Decoders accept only finite JSON
numbers where a number is meant and only JSON integers where an integer is
meant (``dim``); booleans and strings are neither.

A report is its own wire schema: the certificate, the validation and Von
Neumann reports, the simulation result and the solve diagnostics each encode
as an object of their fields in declaration order. Complex arrays are
matrices, other arrays and tuples lists, named tuples objects and numpy
scalars Python numbers. The validation report leaves out ``states_passed``:
it only chooses whether the library raises ``SpanDeficientError`` or
``InvalidEnsembleError`` for a failed report, and the command line prints
the same report, and exits 1, for both.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields, is_dataclass, replace
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


def _to_wire(value):
    """The wire form of a report or of one of its fields."""
    if is_dataclass(value):
        return {f.name: _to_wire(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, tuple):
        items = [_to_wire(v) for v in value]
        return dict(zip(value._fields, items)) if hasattr(value, "_fields") else items
    if isinstance(value, np.ndarray):
        return matrix_to_wire(value) if np.iscomplexobj(value) else value.tolist()
    return value.item() if isinstance(value, np.generic) else value


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


def _number_from_wire(x, what: str) -> float:
    """``x`` as a float; raise ``ValueError`` unless it is a finite JSON number."""
    # bool is an int to Python but not a number on the wire; nan, the
    # infinities and integers beyond the double range all fail the bound
    if type(x) not in (int, float) or not abs(x) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number, got {x!r}")
    return float(x)


def _checked_dim(data, stack_dim: int) -> None:
    """Check the document's declared ``dim``, a JSON integer, against its matrices."""
    dim = data["dim"]
    if type(dim) is not int:
        raise ValueError(f"dim must be a JSON integer, got {dim!r}")
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
    # a hand-built certificate may hold a real x_hat; on the wire it is a matrix
    return _to_wire(replace(c, x_hat=np.asarray(c.x_hat, dtype=np.complex128)))


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
    wire = _to_wire(r)
    del wire["states_passed"]
    return wire


def vnm_report_to_wire(r: VnmReport) -> dict:
    return _to_wire(r)


def sim_result_to_wire(r: SimResult) -> dict:
    return _to_wire(r)


def diagnostics_to_wire(d: SolveDiagnostics) -> dict:
    return _to_wire(d)


def solve_result_to_wire(p: Povm, c: Certificate, d: SolveDiagnostics) -> dict:
    return {
        "povm": povm_to_wire(p),
        "certificate": certificate_to_wire(c),
        "diagnostics": diagnostics_to_wire(d),
    }

