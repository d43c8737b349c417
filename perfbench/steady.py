#!/usr/bin/env python3
"""Steadiness self-check for the perfbench benchmark.

Usage, from the repository root:

    python3 perfbench/steady.py [--runs 10] [--seed-base 1] [--workload NAME ...]

Runs every workload (or the named ones) --runs times, each with another
seed, untraced, and prints for each end-to-end metric of BENCHMARK.json its
median and its spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound, followed by its values. A spread above the bound, a
failed correctness check or a failed op fails the check. For the per-layer
metrics, run `python3 perfbench/run.py ... --trace 1`.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(HERE)


def run(spec, workload, seed, trace):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args()

    ok = True
    for w in args.workload or names:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for k in range(args.runs):
            res = run(spec, w, args.seed_base + k, 0)
            if not res["correct"] or res["failed"]:
                ok = False
                print(f"{w} seed {args.seed_base + k}: correct="
                      f"{res['correct']} failed={res['failed']}")
            for name in values:
                values[name].append(res["metrics"][name]["value"])
        print(f"\n{w}: {args.runs} runs")
        print(f"  {'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            med = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else float("inf")
            verdict = "ok" if spread <= m["bound"] / 3 else (
                "WIDE" if spread <= m["bound"] else "FAIL")
            if verdict == "FAIL":
                ok = False
            print(f"  {m['name']:<16} {med:>12.4f} {spread:>8.3f} "
                  f"{m['bound']:>6.2f}  {verdict}")
            print("    " + " ".join(f"{x:.4g}" for x in v))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
