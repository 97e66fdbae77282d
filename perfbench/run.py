#!/usr/bin/env python3
"""The qsd benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one caller in one process; BLAS is
pinned to one thread, and the process to one CPU, here and in every child
process. With ``--trace 0`` the run measures the end-to-end metrics, in
seconds normalized to a fixed reference kernel timed next to each operation;
with ``--trace 1`` it runs a fixed number of operations twice, untraced and
traced in alternating order, and reports the per-layer metrics. Every answer is checked
outside the timed region. The metric names and units come from
BENCHMARK.json; the last line of standard output is the JSON result. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

BLAS_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(BLAS_PINS)  # before numpy is imported, here and in children

import numpy as np  # noqa: E402

import spans  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPS = 9
PROBE_REPS = 3
# Seconds that reference() takes on the nominal machine. A time t measured
# next to a reference time r is reported as t * REF_NOMINAL_S / r.
REF_NOMINAL_S = 0.003
_REF_RNG = np.random.default_rng(0)
_REF_SMALL = _REF_RNG.standard_normal((6, 6))
_REF_SMALL = _REF_SMALL + _REF_SMALL.T
_REF_LARGE = _REF_RNG.standard_normal((96, 96))
_REF_LARGE = _REF_LARGE + _REF_LARGE.T


def reference() -> float:
    """Seconds taken by a fixed kernel that does both kinds of work the
    workloads do: a Python-level loop of small LAPACK calls and one dense
    eigendecomposition. Timed next to an operation on the same CPU, it gives
    the speed of the machine at that moment, which on a shared VM swings by
    tens of percent within seconds."""
    t0 = perf_counter()
    for _ in range(100):
        np.linalg.eigvalsh(_REF_SMALL)
    np.linalg.eigh(_REF_LARGE)
    return perf_counter() - t0


def probe_import(module: str) -> float:
    """Seconds to import ``module`` in a fresh interpreter, timed inside it."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return float(out.stdout)


def attempt(wl, inp):
    """Run one operation; return (output, seconds, exception or None)."""
    t0 = perf_counter()
    try:
        out, exc = wl.run(inp), None
    except Exception as e:  # an operation that raises is a counted failure
        out, exc = None, e
    return out, perf_counter() - t0, exc


class Pass:
    """Latencies and failures of one sequence of operations. Latencies cover
    every attempted operation. A failure the workload does not allow is a
    wrong answer: it makes the run incorrect and is what the result's
    ``failed`` counts. The allowed ones are checked to be genuine, so they are
    correct answers to their inputs; ``failed_frac`` still counts them."""

    def __init__(self):
        self.walls: list[float] = []
        self.refs: list[float] = []  # reference() after each operation, when normalized
        self.commands: list[str] = []
        self.reasons: collections.Counter = collections.Counter()

    @property
    def attempted(self) -> int:
        return len(self.walls)

    @property
    def failed(self) -> int:
        return sum(self.reasons.values())

    def wrong(self, allowed) -> int:
        """Failures whose reason the workload does not allow."""
        return sum(n for r, n in self.reasons.items() if r not in allowed)

    def quantile(self, q: float) -> float:
        return float(np.percentile(self.walls, 100 * q)) if self.walls else 0.0

    def summary(self) -> dict[str, float]:
        """Latency and throughput figures in measured seconds, except
        ``op_s.gmean``, which is normalized when refs were taken."""
        busy = sum(self.walls)
        lat = np.array(self.walls)
        if self.refs:
            lat = lat * REF_NOMINAL_S / np.array(self.refs)
        return {
            "op_s.gmean": float(np.exp(np.mean(np.log(lat)))) if len(lat) else 0.0,
            "op_s.p50": self.quantile(0.5),
            "op_s.p90": self.quantile(0.9),
            "ops_per_s": (self.attempted - self.failed) / busy if busy else 0.0,
            "failed_frac": self.failed / self.attempted if self.attempted else 0.0,
        }


def measure(wl, ks, seconds=None, tracer=None, res=None, normalize=False) -> Pass:
    """Run operations ``ks`` in a closed loop, for at most ``seconds`` of
    wall time when given, adding them to ``res``. ``tracer.begin``/``end``
    bracket each operation; ``end`` runs after its clock has stopped. With
    ``normalize``, ``reference()`` is timed right after each operation."""
    res = Pass() if res is None else res
    start = perf_counter()
    for k in ks:
        if seconds is not None and perf_counter() - start >= seconds:
            break
        inp = wl.prepare(k)
        if tracer is not None:
            tracer.begin(res.attempted)
        out, dt, exc = attempt(wl, inp)
        if tracer is not None:
            tracer.end()
        if normalize:
            res.refs.append(reference())
        reason = wl.check(inp, out) if exc is None else wl.check_error(inp, exc)
        res.walls.append(dt)
        res.commands.append(wl.command(k))
        if reason:
            res.reasons[reason] += 1
    return res


def environment(args, nproc: int, cpu: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_thread_pin": BLAS_PINS,
        "numpy": np.__version__,
        "blas": blas,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_pin": cpu,
        "ref_nominal_s": REF_NOMINAL_S,
    }


def set_up(cls, seed, workdir):
    """Build the workload and run one warm-up operation, SETUP_REPS times;
    return the workload and the median set-up seconds (import included),
    each normalized by the mean of reference() before and after it."""
    times = []
    for _ in range(SETUP_REPS):
        ref = reference()
        t_import = probe_import("qsd")
        t0 = perf_counter()
        wl = cls(seed, workdir)
        wl.setup()
        attempt(wl, wl.warmup_input())
        t = t_import + perf_counter() - t0
        ref = (ref + reference()) / 2
        times.append(t * REF_NOMINAL_S / ref)
    return wl, statistics.median(times)


def end_to_end(wl, args, setup_s):
    res = measure(wl, range(10**9), seconds=args.seconds, normalize=True)
    who = resource.RUSAGE_CHILDREN if wl.in_children else resource.RUSAGE_SELF
    values = res.summary()
    values["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    values["setup_s"] = setup_s
    values["op_s.gmean_measured"] = float(np.exp(np.mean(np.log(res.walls)))) if res.walls else 0.0
    values["ref_s.p50"] = float(np.median(res.refs)) if res.refs else 0.0
    print(f"# operations attempted {res.attempted}, failed {res.failed} "
          f"(wrong {res.wrong(wl.allowed_failures)}), timed {sum(res.walls):.3f} s; "
          f"failures {dict(res.reasons)}")
    for name in ("op_s.gmean_measured", "ref_s.p50", "op_s.p50", "op_s.p90", "ops_per_s", "failed_frac"):
        print(f"# {name:40s} {values[name]:.6g} (measured, no bound; see README)")
    return res, [res], values


def per_layer(wl, args):
    """Run a fixed set of operations twice each, untraced and traced, in
    alternating order, so machine drift hits both passes alike."""
    n_ops = wl.cycle * max(1, round(args.seconds * wl.trace_ops_per_s / wl.cycle))
    if wl.in_children:
        tracer = spans.ChildTracer(wl, os.path.join(HERE, "trace_child.py"))
    else:
        tracer = spans.Tracer()
    plain, traced = Pass(), Pass()

    def traced_op(k):
        tracer.install()
        try:
            measure(wl, [k], tracer=tracer, res=traced)
        finally:
            tracer.uninstall()

    for k in range(n_ops):
        if k % 2:
            traced_op(k)
        measure(wl, [k], res=plain)
        if not k % 2:
            traced_op(k)
    records = tracer.spans
    # process overhead comes from the untraced pass, which ran the same ops in the same order
    values = spans.layer_metrics(records, traced.commands, plain.walls if wl.in_children else None)
    values.update(plain.summary())
    values["trace.overhead_s"] = traced.quantile(0.5) - plain.quantile(0.5)
    values["cli.import_s"] = statistics.median(probe_import("qsd.cli") for _ in range(PROBE_REPS))
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"), "w") as fh:
        json.dump({"commands": traced.commands, "walls": traced.walls, "spans": records}, fh)
    print(f"# traced pass: {n_ops} operations, {len(records)} spans, "
          f"failures {dict(traced.reasons)}; untraced p50 {plain.quantile(0.5):.6f} s")
    return traced, [plain, traced], values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(SRC, "qsd", "__init__.py")):
        print(f"error: no qsd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    import qsd

    if not os.path.abspath(qsd.__file__).startswith(SRC + os.sep):
        print(f"error: imported qsd from {qsd.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})  # the reference and every operation share one CPU
    print("# env " + json.dumps(environment(args, nproc, cpu)))
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wl, setup_s = set_up(WORKLOADS[args.workload], args.seed, workdir)
        if args.trace:
            main_pass, passes, values = per_layer(wl, args)
            wanted = spec["per_layer"]
        else:
            main_pass, passes, values = end_to_end(wl, args, setup_s)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"# samples {main_pass.attempted} operations")
    result = {
        "correct": all(p.wrong(wl.allowed_failures) == 0 for p in passes) and main_pass.attempted > 0,
        "attempted": main_pass.attempted,
        "failed": main_pass.wrong(wl.allowed_failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
