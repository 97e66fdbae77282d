import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import qsd
from qsd.serialize import diagnostics_to_wire

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_public_api():
    names = qsd.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qsd, name) is not None, name
    for gone in ("Factorization", "factorize", "BlockMatrix", "build_psi", "selector",
                 "NotConvergedError", "NotPsdError", "sqrt_psd", "is_psd",
                 "lsm_is_projective_expected", "State", "inv_sqrt_psd",
                 "numeric_rank", "direct_sum_rank", "EigResult", "IterateRecord"):
        assert not hasattr(qsd, gone), gone
    fields = [f.name for f in dataclasses.fields(qsd.SolveDiagnostics)]
    assert fields == ["iterations", "primal_value", "converged"]


def test_benchmark_hooks_exist():
    """What the benchmark harness in ``perfbench/`` reads from the package."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for modname, attr in spans.TARGETS:
        assert hasattr(importlib.import_module(modname), attr), (modname, attr)

    assert list(inspect.signature(qsd.certify).parameters)[3] == "tol"
    assert inspect.signature(qsd.solve_optimal).parameters["max_iter"].default == 10000
    e = qsd.random_ensemble(2, (1, 1), seed=0, require_independent=True)
    _, _, diag = qsd.solve_optimal(e)
    for attr in ("converged", "iterations", "primal_value"):
        assert hasattr(diag, attr), attr
    assert {"converged", "primal_value"} <= set(diagnostics_to_wire(diag))
