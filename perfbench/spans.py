"""Span tracing of the qsd package from outside, and per-layer aggregation.

``Tracer.install`` replaces the public functions named in ``TARGETS`` (and
the numpy.linalg entry points qsd calls) with wrappers, in every qsd module
namespace that binds them, so calls between qsd modules are caught too. A
wrapper records a span only while an operation is open (``Tracer.begin``), so
answer checks and input generation stay out of the trace. Spans are kept in
memory as ``[name, start, end, parent, op, attr]`` lists and written out at
the end of a run.
"""

from __future__ import annotations

import collections
import functools
import importlib
import json
import os
import sys
from time import perf_counter

import numpy as np

# (module, attribute) -> span name. Decode and encode entry points share one
# span name each, so nested wire calls are counted once (outermost span).
TARGETS = {
    ("qsd.ensemble", "validate"): "ensemble.validate",
    ("qsd.lsm", "compute_lsm"): "lsm.compute_lsm",
    ("qsd.lsm", "make_povm"): "lsm.make_povm",
    ("qsd.optimal", "solve_optimal"): "optimal.solve_optimal",
    ("qsd.optimal", "certify"): "optimal.certify",
    ("qsd.vnm", "vnm_report"): "vnm.vnm_report",
    ("qsd.sim", "simulate"): "sim.simulate",
    ("qsd.serialize", "ensemble_from_wire"): "serialize.decode",
    ("qsd.serialize", "povm_from_wire"): "serialize.decode",
    ("qsd.serialize", "certificate_from_wire"): "serialize.decode",
    ("qsd.serialize", "ensemble_to_wire"): "serialize.encode",
    ("qsd.serialize", "povm_to_wire"): "serialize.encode",
    ("qsd.serialize", "certificate_to_wire"): "serialize.encode",
    ("qsd.serialize", "vnm_report_to_wire"): "serialize.encode",
    ("qsd.serialize", "sim_result_to_wire"): "serialize.encode",
    ("qsd.serialize", "solve_result_to_wire"): "serialize.encode",
    ("qsd.serialize", "dumps"): "serialize.encode",
    ("qsd.cli", "dispatch"): "cli.dispatch",
}
LAPACK = ("eigh", "eigvalsh", "svd")
COMMANDS = ("solve", "certify", "check-vnm", "simulate")


def _attr_for(name):
    """What a span keeps besides its times: iterations, or wire sizes."""
    if name == "optimal.solve_optimal":
        return lambda args, out: int(out[2].iterations)
    if name == "serialize.encode":
        return lambda args, out: len(out) if isinstance(out, str) else None
    if name == "serialize.decode":
        return lambda args, out: len(args[0]) if args and isinstance(args[0], str) else None
    return None


class Tracer:
    """Wraps the qsd entry points in place and records their spans."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = None
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, op) -> None:
        self._op = op

    def end(self) -> None:
        self._op = None

    def wrap(self, name, fn):
        attr = _attr_for(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if attr is not None:
                rec[5] = attr(args, out)
            return out

        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the targets, the LAPACK entry points and the CLI's JSON parse."""
        for (modname, attr), name in TARGETS.items():
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            wrapped = self.wrap(name, original)
            for key, m in list(sys.modules.items()):
                if m is None or not (key == "qsd" or key.startswith("qsd.")):
                    continue
                for var, val in list(vars(m).items()):
                    if val is original:
                        self._patch(m, var, wrapped)
        for attr in LAPACK:
            self._patch(np.linalg, attr, self.wrap("lapack." + attr, getattr(np.linalg, attr)))
        cli_json = importlib.import_module("qsd.cli").json
        self._patch(cli_json, "loads", self.wrap("serialize.decode", cli_json.loads))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, old = self._patched.pop()
            setattr(owner, attr, old)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


class ChildTracer:
    """``Tracer`` for a workload whose operations are child processes.

    ``install`` routes the workload's children through ``script``, which
    traces them and writes their spans to ``workload.spans_out``; ``end``
    collects those spans for the operation that just finished.
    """

    def __init__(self, workload, script: str):
        self.workload = workload
        self.script = script
        self.spans: list[list] = []
        self._op = None

    def install(self) -> None:
        self.workload.tracer_script = self.script

    def uninstall(self) -> None:
        self.workload.tracer_script = None

    def begin(self, op) -> None:
        self._op = op

    def end(self) -> None:
        path = self.workload.spans_out
        if os.path.exists(path):
            with open(path) as fh:
                child = json.load(fh)
            os.remove(path)
            base = len(self.spans)
            for name, t0, t1, parent, _, attr in child:
                self.spans.append([name, t0, t1, parent + base if parent >= 0 else -1, self._op, attr])
        self._op = None


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans, op_cmds, op_walls=None) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``op_cmds[op]`` is the command each operation ran ("solve" for a library
    call); ``op_walls[op]`` is the wall time of the same CLI operation run
    untraced, so the process overhead leaves out the tracer's own cost.
    Times are seconds per operation unless the name says otherwise.
    """
    n_ops = max(1, len(op_cmds))
    dur = [s[2] - s[1] for s in spans]
    self_t = list(dur)
    by_name = collections.defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
        if s[3] >= 0:
            self_t[s[3]] -= dur[i]

    def total(name, selftime=False, ops=None):
        """Time in ``name`` spans not nested in another span of that name."""
        times = self_t if selftime else dur
        return sum(
            times[i] for i in by_name[name]
            if (spans[i][3] < 0 or spans[spans[i][3]][0] != name) and (ops is None or spans[i][4] in ops)
        )

    solves = set(by_name["optimal.solve_optimal"])
    iters = [spans[i][5] for i in sorted(solves) if spans[i][5] is not None]  # None: it raised
    n_solves, n_iters = max(1, len(solves)), sum(iters)

    def inside_solve(i):
        p = spans[i][3]
        while p >= 0 and p not in solves:
            p = spans[p][3]
        return p >= 0

    lapack = {lp: by_name["lapack." + lp] for lp in LAPACK}
    # LAPACK called directly by the loop: eigh in the update, eigvalsh in the certificate check
    loop_lapack = {lp: sum(dur[i] for i in calls if spans[i][3] in solves) for lp, calls in lapack.items()}
    loop_self = total("optimal.solve_optimal", selftime=True)
    m = {
        "ensemble.validate.s": total("ensemble.validate") / n_ops,
        "ensemble.validate.calls_per_solve": len(by_name["ensemble.validate"]) / n_solves,
        "lsm.compute_lsm.s": total("lsm.compute_lsm", selftime=True) / n_ops,
        "lsm.make_povm.s": total("lsm.make_povm") / n_ops,
        "lsm.make_povm.calls": len(by_name["lsm.make_povm"]) / n_ops,
        "optimal.certify.s": total("optimal.certify") / n_ops,
        "optimal.loop.s": loop_self / n_ops,
        "optimal.loop_eigh.s": loop_lapack["eigh"] / n_ops,
        "optimal.loop_eigvalsh.s": loop_lapack["eigvalsh"] / n_ops,
        "optimal.loop_us_per_iter": 1e6 * (loop_self + sum(loop_lapack.values())) / n_iters if n_iters else 0.0,
        "optimal.iterations.sum": float(n_iters),
        "optimal.iterations.p50": _pct(iters, 50),
        "optimal.iterations.p90": _pct(iters, 90),
        "optimal.iterations.max": float(max(iters, default=0)),
        "linalg.lapack.s": sum(dur[i] for calls in lapack.values() for i in calls) / n_ops,
    }
    for lp, calls in lapack.items():
        in_loop = sum(1 for i in calls if spans[i][3] in solves)
        m[f"linalg.{lp}.calls_per_solve"] = sum(1 for i in calls if inside_solve(i)) / n_solves
        m[f"linalg.{lp}.calls_per_iter"] = in_loop / n_iters if n_iters else 0.0

    for cmd in COMMANDS:
        ops = {op for op, c in enumerate(op_cmds) if c == cmd}
        k = max(1, len(ops))
        for kind, size in (("decode", "bytes_in"), ("encode", "bytes_out")):
            name = "serialize." + kind
            m[f"serialize.{kind}.{cmd}.s"] = total(name, ops=ops) / k
            m[f"serialize.{size}.{cmd}"] = sum(
                spans[i][5] or 0 for i in by_name[name] if spans[i][4] in ops
            ) / k
    dispatch = [0.0] * len(op_cmds)
    for i in by_name["cli.dispatch"]:
        dispatch[spans[i][4]] += dur[i]
    m["cli.dispatch.s"] = sum(dispatch) / n_ops
    m["cli.process_overhead_s"] = (
        sum(w - d for w, d in zip(op_walls, dispatch)) / n_ops if op_walls else 0.0
    )
    m["vnm.vnm_report.s"] = total("vnm.vnm_report") / n_ops
    m["sim.simulate.s"] = total("sim.simulate") / n_ops
    return m
