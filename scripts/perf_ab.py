#!/usr/bin/env python3
"""Runs perfbench's riobench from two checkouts in alternating pairs.

    python3 scripts/perf_ab.py PARENT CHANGE --workload hot_loops \\
        --pairs 10 --seconds 2 --seed 101 [--trace 0|1]

PARENT and CHANGE are checkouts whose benchmark binary is already built
(.bench_build/riobench, e.g. by one `python3 perfbench/run.py` call in
each). Pair i runs both binaries on seed SEED + i under `setarch -R` (no
address-space randomization, so peak RSS repeats), the parent first on
even pairs and the change first on odd ones. For every metric that both
sides report (the end-to-end metrics with --trace 0, the per-layer ones
with --trace 1) it prints the parent's median and quartiles, the change's
median, the change in percent and the numbers of pairs in which the
change read lower and higher (the rest are ties). Exits 1 if sim_cycles
differs between the sides at any seed, 2 if a run fails, 0 otherwise.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

RUN_TIMEOUT_S = 300


def fail(msg):
    print(f"perf_ab.py: {msg}", file=sys.stderr)
    sys.exit(2)


def binary(checkout):
    path = os.path.join(checkout, ".bench_build", "riobench")
    if not os.access(path, os.X_OK):
        fail(f"no built benchmark at {path}: run perfbench/run.py there")
    return path


def run_once(path, args, seed):
    cmd = ["setarch", platform.machine(), "-R", path,
           "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{path} did not finish within {RUN_TIMEOUT_S} s")
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        fail(f"{path} exited with code {done.returncode} at seed {seed}")
    try:
        result = json.loads(lines[-1])
        return {k: v["value"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError):
        fail(f"{path} printed no result line at seed {seed}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=2)
    ap.add_argument("--seed", type=int, required=True, help="first seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds < 1:
        fail("--pairs and --seconds must be at least 1")

    sides = {"parent": binary(args.parent), "change": binary(args.change)}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(sides[side], args, seed))
        wall = "wall_s" if "wall_s" in runs["parent"][-1] else "bench.raw_wall_s"
        print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
            f"{s} {wall} {runs[s][-1].get(wall, float('nan')):.4f}"
            for s in ("parent", "change")), flush=True)

    names = [m for m in runs["parent"][0] if m in runs["change"][0]]
    print(f"\n{args.workload}, {args.pairs} pairs, --seconds {args.seconds}, "
          f"seeds {args.seed}-{args.seed + args.pairs - 1}, "
          f"--trace {args.trace}")
    print(f"{'metric':28} {'parent':>12} {'parent IQR':>25} {'change':>12} "
          f"{'delta':>8} {'lower':>7} {'higher':>7}")
    for m in names:
        a = [r[m] for r in runs["parent"]]
        b = [r[m] for r in runs["change"]]
        ma, mb = statistics.median(a), statistics.median(b)
        q1, q3 = quartiles(a)
        delta = (mb - ma) / ma * 100 if ma else 0.0
        lower = sum(y < x for x, y in zip(a, b))
        higher = sum(y > x for x, y in zip(a, b))
        print(f"{m:28} {ma:12.6g} {f'{q1:.6g} - {q3:.6g}':>25} {mb:12.6g} "
              f"{delta:+7.2f}% {lower:>3}/{args.pairs} "
              f"{higher:>3}/{args.pairs}")

    differ = [args.seed + i for i, (x, y) in
              enumerate(zip(runs["parent"], runs["change"]))
              if x.get("sim_cycles") != y.get("sim_cycles")]
    if differ:
        print(f"sim_cycles differs at seeds {differ}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
