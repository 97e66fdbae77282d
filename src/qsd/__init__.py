"""Optimal and least-squares measurements for distinguishing mixed quantum
states, with executable verification that both are Von Neumann measurements
on linearly independent ensembles.
"""

from .ensemble import (
    Ensemble,
    ValidationReport,
    deflate,
    is_linearly_independent,
    random_ensemble,
    validate,
)
from .errors import (
    BadPriorsError,
    BadRanksError,
    CountMismatchError,
    DimMismatchError,
    InvalidEnsembleError,
    NonSquareError,
    NotBinaryError,
    NotHermitianError,
    QsdError,
    SingularMatrixError,
    SpanDeficientError,
)
from .linalg import (
    EigResult,
    eig_hermitian,
    numeric_rank,
    trace_norm,
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
from .sim import ConfusionMatrix, SimResult, born_probabilities, simulate
from .vnm import (
    PovmCheck,
    RankPair,
    VnmReport,
    check_povm,
    direct_sum_rank,
    is_projective,
    rank_profile,
    vnm_report,
)

__version__ = "0.1.0"

__all__ = [
    "BadPriorsError",
    "BadRanksError",
    "Certificate",
    "ConfusionMatrix",
    "CountMismatchError",
    "DimMismatchError",
    "EigResult",
    "Ensemble",
    "InvalidEnsembleError",
    "NonSquareError",
    "NotBinaryError",
    "NotHermitianError",
    "Povm",
    "PovmCheck",
    "QsdError",
    "RankPair",
    "SimResult",
    "SingularMatrixError",
    "SolveDiagnostics",
    "SpanDeficientError",
    "ValidationReport",
    "VnmReport",
    "born_probabilities",
    "certify",
    "check_povm",
    "compute_lsm",
    "deflate",
    "direct_sum_rank",
    "eig_hermitian",
    "helstrom_binary",
    "is_linearly_independent",
    "is_projective",
    "make_povm",
    "numeric_rank",
    "prob_correct",
    "random_ensemble",
    "rank_profile",
    "simulate",
    "solve_optimal",
    "trace_norm",
    "validate",
    "vnm_report",
]
