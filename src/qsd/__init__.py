"""Optimal and least-squares measurements for distinguishing mixed quantum
states, with executable verification that both are Von Neumann measurements
on linearly independent ensembles.
"""

from .ensemble import (
    Ensemble,
    InvalidEnsembleError,
    SpanDeficientError,
    ValidationReport,
    deflate,
    is_linearly_independent,
    random_ensemble,
    validate,
)
from .lsm import Povm, compute_lsm, make_povm
from .optimal import (
    Certificate,
    SolveDiagnostics,
    certify,
    helstrom_binary,
    prob_correct,
    solve_optimal,
)
from .sim import SimResult, born_probabilities, simulate
from .vnm import (
    PovmCheck,
    RankPair,
    VnmReport,
    check_povm,
    vnm_report,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "Ensemble",
    "InvalidEnsembleError",
    "Povm",
    "PovmCheck",
    "RankPair",
    "SimResult",
    "SolveDiagnostics",
    "SpanDeficientError",
    "ValidationReport",
    "VnmReport",
    "born_probabilities",
    "certify",
    "check_povm",
    "compute_lsm",
    "deflate",
    "helstrom_binary",
    "is_linearly_independent",
    "make_povm",
    "prob_correct",
    "random_ensemble",
    "simulate",
    "solve_optimal",
    "validate",
    "vnm_report",
]
