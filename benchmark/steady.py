#!/usr/bin/env python3
"""Steadiness check: runs the benchmark repeatedly on one tree and prints,
for each workload and end-to-end metric, the median, the quartiles and the
spread (Q3 - Q1) / median, with the largest spread of each workload.

Run it from the repository root:

    python3 benchmark/steady.py --runs 10 --seconds 30 fig8 manyproc iosimd

Each run uses its own seed (first-seed, first-seed + 1, ...). The bounds in
BENCHMARK.json are set from its output: a metric whose spread is not well
inside its bound is not steady.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def steal_seconds():
    """Time the hypervisor took from the machine's CPUs, from /proc/stat
    (Linux only; None elsewhere). A run that coincides with much steal is
    slow for reasons outside the program."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_once(workload, seed, seconds):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=600)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()

    for w in args.workloads:
        values = {}
        for i in range(args.runs):
            steal0 = steal_seconds()
            result = run_once(w, args.first_seed + i, args.seconds)
            steal1 = steal_seconds()
            steal = f" steal={steal1 - steal0:.1f}s" if steal0 is not None else ""
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {args.first_seed + i}: " +
                  " ".join(f"{k}={m['value']:.6g}" for k, m in sorted(result["metrics"].items())) + steal,
                  file=sys.stderr, flush=True)
        worst = 0.0
        print(f"{w}: {args.runs} runs of {args.seconds} s")
        print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name in sorted(values):
            vs = values[name]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            if name != "setup_s":
                worst = max(worst, spread)
            print(f"  {name:<16} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%}")
        print(f"  largest spread (setup_s aside): {worst:.2%}", flush=True)


if __name__ == "__main__":
    main()
