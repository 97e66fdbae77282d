#!/usr/bin/env python3
"""Print every metric of every workload, end-to-end and per-layer.

Usage, from the repository root:

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs each workload of BENCHMARK.json once untraced and once traced, prints
each metric with its unit, and exits non-zero if any run fails or reports
an incorrect answer.
"""

from __future__ import annotations

import argparse
import json

from steadiness import run_once


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    for w in spec["workloads"]:
        for trace in (0, 1):
            res = run_once(w["name"], args.seed, seconds, trace)
            print(f"\n{w['name']} --trace {trace}: attempted {res['attempted']}, failed {res['failed']}")
            for name, m in res["metrics"].items():
                print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
