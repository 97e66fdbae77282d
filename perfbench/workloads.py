"""Seeded inputs, one operation and its answer check, for each workload.

A workload turns an operation index ``k`` into an input (``prepare``), runs
one operation on it (``run``, the only timed call) and checks the answer
(``check``, which returns ``None`` or the reason the operation failed).
Inputs depend only on the workload seed and ``k``. A failure whose reason is
not in the workload's ``allowed_failures`` is a wrong answer.
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys

import numpy as np

import qsd
from qsd import serialize

import spans

CERT_TOL = 1e-7
# An unconverged answer must still pass the certificate at this looser tolerance.
LOOSE_TOL = 1e-5
MAX_ITER = inspect.signature(qsd.solve_optimal).parameters["max_iter"].default
# Offsets that keep auxiliary random streams apart from the per-operation ones.
ORDER_STREAM = 10**9
SIM_STREAM = 2 * 10**9


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def _priors(rng: np.random.Generator, m: int, skewed: bool):
    """'uniform', or a flat-Dirichlet draw whose largest entry absorbs the
    rounding residue so the priors sum to one."""
    if not skewed:
        return "uniform"
    p = [float(x) for x in rng.dirichlet(np.ones(m))]
    top = int(np.argmax(p))
    p[top] = 1.0 - sum(x for i, x in enumerate(p) if i != top)
    return p


class _LibrarySolve:
    """A workload whose operation is one in-process ``solve_optimal`` call.

    ``cycle`` is the number of operations after which the input mix repeats;
    a traced pass runs whole cycles, about ``trace_ops_per_s`` operations per
    second of ``--seconds``.
    """

    von_neumann = False  # whether answers must also be Von Neumann measurements
    in_children = False  # whether operations run in child processes
    allowed_failures: frozenset[str] = frozenset()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        """Inputs are drawn per operation, so there is nothing to build."""

    def command(self, k: int) -> str:
        return "solve"

    def warmup_input(self):
        """The same small independent ensemble for every seed, so the
        warm-up in set-up costs the same whatever the seed draws."""
        return qsd.random_ensemble(16, [4] * 4, seed=0, require_independent=True)

    def run(self, e):
        return qsd.solve_optimal(e)

    def check_error(self, e, exc):
        """The reason for an exception: its name, or a wrong answer when
        ``SpanDeficientError`` names an ensemble whose states span the space."""
        name = type(exc).__name__
        if name == "SpanDeficientError" and np.linalg.matrix_rank(np.hstack(e.rhos)) == e.dim:
            return "SpanDeficientError_spanning"
        return name

    def check(self, e, result):
        povm, cert, diag = result
        c = qsd.certify(e, povm, cert.x_hat, CERT_TOL)
        if not c.optimal_at(CERT_TOL):
            if diag.converged:
                return "certify_failed"
            # giving up is genuine only after the whole budget, close to optimal
            if diag.iterations < MAX_ITER or not c.optimal_at(LOOSE_TOL):
                return "not_converged_early_or_far"
            return "not_converged"
        if e.num_states == 2 and abs(qsd.prob_correct(e, povm) - qsd.helstrom_binary(e)) > CERT_TOL:
            return "helstrom_mismatch"
        if self.von_neumann:
            report = qsd.vnm_report(e, povm)
            if not report.is_von_neumann:
                return "not_von_neumann"
            if not all(pair.equal for pair in report.rank_pairs):
                return "rank_mismatch"
        return None


class LiLadder(_LibrarySolve):
    """Linearly independent ensembles, 4 states of rank n/4, n cycling
    through SIZES; priors alternate per cycle between uniform and skewed."""

    SIZES = (16, 32, 64, 96, 128)
    cycle = len(SIZES)
    trace_ops_per_s = 3.0
    von_neumann = True

    def prepare(self, k: int):
        n = self.SIZES[k % self.cycle]
        rng = _rng(self.seed, k)
        priors = _priors(rng, 4, skewed=(k // self.cycle) % 2 == 1)
        return qsd.random_ensemble(
            n, [n // 4] * 4, priors=priors, seed=int(rng.integers(2**63)),
            require_independent=True,
        )


class DependentSmall(_LibrarySolve):
    """Unconstrained random ensembles: n in 2..6, m in 2..7, each rank in
    1..n, priors uniform or skewed. Each block of 60 operations covers every
    (n, m, prior kind) once in a seeded order, which keeps the mix the same
    from seed to seed; ranks, priors and states are drawn per operation.
    Span-deficient draws are kept: ``solve_optimal`` refuses them and they
    count as failures. So do the rare draws on which the solver spends its
    whole iteration budget; these are the only failures allowed."""

    allowed_failures = frozenset({"SpanDeficientError", "not_converged"})
    STRATA = [(n, m, skewed) for n in range(2, 7) for m in range(2, 8) for skewed in (False, True)]
    cycle = len(STRATA)
    trace_ops_per_s = 4.0

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        self._block, self._order = -1, None

    def prepare(self, k: int):
        block, j = divmod(k, self.cycle)
        if block != self._block:
            self._block = block
            self._order = _rng(self.seed, ORDER_STREAM + block).permutation(self.cycle)
        n, m, skewed = self.STRATA[self._order[j]]
        rng = _rng(self.seed, k)
        ranks = [int(r) for r in rng.integers(1, n + 1, size=m)]
        priors = _priors(rng, m, skewed)
        return qsd.random_ensemble(n, ranks, priors=priors, seed=int(rng.integers(2**63)))


class CliPipeline:
    """The README pipeline as ``qsd`` subprocesses: for each ensemble,
    solve --out --cert, certify, check-vnm and simulate. Ensembles are
    linearly independent, n cycling through SIZES, written during set-up."""

    SIZES = (8, 32, 64)
    ENSEMBLES = 12
    COMMANDS = spans.COMMANDS
    TRIALS = 100000
    cycle = len(SIZES) * len(COMMANDS)
    trace_ops_per_s = 1.0
    in_children = True
    allowed_failures: frozenset[str] = frozenset()

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.pd: dict[int, float] = {}
        self.tracer_script = None  # set while spans.ChildTracer is installed
        self.spans_out = os.path.join(workdir, "spans.json")

    def _path(self, kind: str, i: int) -> str:
        return os.path.join(self.workdir, f"{kind}{i}.json")

    def setup(self) -> None:
        for i in range(self.ENSEMBLES):
            n = self.SIZES[i % len(self.SIZES)]
            rng = _rng(self.seed, i)
            priors = _priors(rng, 4, skewed=(i // len(self.SIZES)) % 2 == 1)
            e = qsd.random_ensemble(
                n, [n // 4] * 4, priors=priors, seed=int(rng.integers(2**63)),
                require_independent=True,
            )
            with open(self._path("e", i), "w") as fh:
                fh.write(serialize.dumps(serialize.ensemble_to_wire(e)))

    def command(self, k: int) -> str:
        return self.COMMANDS[k % len(self.COMMANDS)]

    def warmup_input(self):
        return self.prepare(0)

    def check_error(self, inp, exc):
        return type(exc).__name__

    def prepare(self, k: int):
        pipeline = k // len(self.COMMANDS)
        i = pipeline % self.ENSEMBLES
        e, opt, cert = self._path("e", i), self._path("o", i), self._path("c", i)
        cmd = self.command(k)
        args = {
            "solve": [e, "--out", opt, "--cert", cert],
            "certify": [e, opt, cert],
            "check-vnm": [e, opt],
            "simulate": [e, opt, "--trials", str(self.TRIALS),
                         "--seed", str(int(_rng(self.seed, SIM_STREAM + pipeline).integers(2**31)))],
        }[cmd]
        return pipeline, cmd, [cmd, *args]

    def run(self, inp):
        _, _, argv = inp
        if self.tracer_script is None:
            head = [sys.executable, "-m", "qsd.cli"]
        else:
            head = [sys.executable, self.tracer_script, self.spans_out]
        return subprocess.run([*head, *argv], capture_output=True, text=True)

    def check(self, inp, proc):
        pipeline, cmd, _ = inp
        if proc.returncode != 0:
            return f"{cmd}_exit_{proc.returncode}"
        try:
            doc = json.loads(proc.stdout)
        except json.JSONDecodeError:
            return "bad_json"
        if cmd == "solve":
            if not doc["diagnostics"]["converged"]:
                return "not_converged"
            self.pd[pipeline] = float(doc["diagnostics"]["primal_value"])
        elif cmd == "certify":
            if min(doc["feas_margins"]) < -CERT_TOL or max(doc["slack_residuals"]) > CERT_TOL:
                return "certify_failed"
        elif cmd == "check-vnm":
            if not doc["is_von_neumann"]:
                return "not_von_neumann"
            if not all(pair["equal"] for pair in doc["rank_pairs"]):
                return "rank_mismatch"
        elif cmd == "simulate":
            pd = self.pd.get(pipeline)
            if pd is None or doc["trials"] != self.TRIALS:
                return "simulate_without_solve"
            # seeded, so deterministic; 6 standard errors is a loose Monte Carlo bound
            if abs(doc["empirical_pd"] - pd) > 6 * doc["std_error"] + 1e-9:
                return "simulate_mismatch"
        return None


WORKLOADS = {
    "li_ladder": LiLadder,
    "dependent_small": DependentSmall,
    "cli_pipeline": CliPipeline,
}
