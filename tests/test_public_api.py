import dataclasses
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import qsd
from qsd.serialize import diagnostics_to_wire

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
README = ROOT / "README.md"


def test_public_api():
    names = qsd.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qsd, name) is not None, name
    for gone in ("Factorization", "factorize", "BlockMatrix", "build_psi", "selector",
                 "NotConvergedError", "NotPsdError", "sqrt_psd", "is_psd",
                 "lsm_is_projective_expected", "State", "inv_sqrt_psd",
                 "numeric_rank", "direct_sum_rank", "EigResult", "IterateRecord",
                 "eig_hermitian", "NotHermitianError", "NonSquareError",
                 "SingularMatrixError", "ConfusionMatrix", "is_projective",
                 "rank_profile", "trace_norm", "QsdError", "BadRanksError",
                 "BadPriorsError", "DimMismatchError", "CountMismatchError",
                 "NotBinaryError"):
        assert not hasattr(qsd, gone), gone
    # every bad argument is a ValueError; the one domain failure carries a report
    errors = {name for name in names if isinstance(getattr(qsd, name), type)
              and issubclass(getattr(qsd, name), Exception)}
    assert errors == {"InvalidEnsembleError", "SpanDeficientError"}
    assert qsd.InvalidEnsembleError.__mro__[1] is ValueError
    # both live beside the report they carry, and no module holds errors alone
    assert {getattr(qsd, name).__module__ for name in errors} == {"qsd.ensemble"}
    assert importlib.util.find_spec("qsd.errors") is None
    assert len(names) == 25
    # helstrom_binary still reads the trace norm from the linear algebra module
    assert callable(qsd.linalg.trace_norm)
    # nothing in the package reads a simulation or solve document
    for gone in ("sim_result_from_wire", "solve_result_from_wire"):
        assert not hasattr(qsd.serialize, gone), gone
    fields = [f.name for f in dataclasses.fields(qsd.SolveDiagnostics)]
    assert fields == ["iterations", "primal_value", "converged"]


def test_readme_library_example_runs():
    """The README's Python example runs, and uses only the public API."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    assert set(re.findall(r"\bqsd\.(\w+)", blocks[0])) <= set(qsd.__all__)
    exec(compile(blocks[0], str(README), "exec"), {})


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
