#!/usr/bin/env python3
"""Run-to-run spread of the benchmark.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 --seconds S \
        [--trace 0|1]

Runs perfbench/run.py once per seed, one run at a time, and prints each
metric's median and its quartile spread (Q3 - Q1 over the median, from
statistics.quantiles(values, n=4)). This is how the spreads in README.md
were measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import benchstats  # noqa: E402


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-5")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    values = {}
    for seed in seeds(args.seeds):
        p = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        result = json.loads(p.stdout.strip().splitlines()[-1])
        if p.returncode != 0 or not result["correct"]:
            sys.exit("seed %d: run failed or incorrect" % seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d done" % seed, file=sys.stderr, flush=True)

    print("%-28s %14s %8s  values" % ("metric", "median", "spread"))
    for name, vs in values.items():
        med = statistics.median(vs)
        spread = (benchstats.quartile_spread(vs)
                  if len(vs) >= 2 and med else float("nan"))
        print("%-28s %14.6g %7.2f%%  %s"
              % (name, med, 100 * spread,
                 " ".join("%.4g" % v for v in vs)))


if __name__ == "__main__":
    main()
