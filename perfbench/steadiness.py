#!/usr/bin/env python3
"""Steadiness and repeatability checks for the benchmark.

Usage, from the repository root:

    python3 perfbench/steadiness.py spread --workload NAME --seeds 101-110
    python3 perfbench/steadiness.py counts --workload NAME --seed 7

``spread`` runs the untraced benchmark once per seed and prints, for each
end-to-end metric, the median and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound. ``counts`` runs the traced benchmark
twice at one seed and checks that every count metric (unit ``count`` or
``bytes``) is identical across the two runs. Both exit non-zero on failure.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
EXACT_UNITS = ("count", "bytes")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"run failed ({proc.returncode}): {' '.join(cmd)}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"incorrect answers: {' '.join(cmd)}\n{proc.stdout}")
    return result


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(args, spec) -> int:
    rows = []
    for seed in parse_seeds(args.seeds):
        res = run_once(args.workload, seed, args.seconds, 0)
        rows.append(res)
        vals = {k: round(v["value"], 6) for k, v in res["metrics"].items()}
        print(f"seed {seed}: attempted {res['attempted']} failed {res['failed']} {vals}", flush=True)
    ok = True
    print(f"\n{args.workload}, {len(rows)} seeds, {args.seconds} s per run")
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in rows]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        share = (q3 - q1) / med
        within = share <= metric["bound"]
        ok &= within
        print(f"{metric['name']:14s} median {med:.6g} {metric['unit']:4s} spread {share:.4f} "
              f"bound {metric['bound']} third {metric['bound'] / 3:.4f} {'ok' if within else 'OVER'}")
    return 0 if ok else 1


def counts(args, spec) -> int:
    names = [m["name"] for m in spec["per_layer"] if m["unit"] in EXACT_UNITS]
    a, b = (run_once(args.workload, args.seed, args.seconds, 1) for _ in range(2))
    diff = [n for n in names if a["metrics"][n]["value"] != b["metrics"][n]["value"]]
    for n in names:
        print(f"{n:40s} {a['metrics'][n]['value']!r:>14} {b['metrics'][n]['value']!r:>14}")
    print(f"{args.workload} seed {args.seed}: {len(names) - len(diff)} of {len(names)} counts identical")
    return 1 if diff else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("mode", choices=("spread", "counts"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="101-110")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return spread(args, spec) if args.mode == "spread" else counts(args, spec)


if __name__ == "__main__":
    sys.exit(main())
