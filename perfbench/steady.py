#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs each workload once per seed (seeds 1, 2, ...) for the run length of
BENCHMARK.json and prints, for every end-to-end metric, the median, the
quartiles and the spread (Q3 - Q1) / median next to the metric's bound
from BENCHMARK.json. Then re-runs the first seed of each
workload and requires every deterministic output (the `deterministic`
line of the report: convergence time, update counts, normalized FCTs,
sim counts) to repeat exactly.

Run from the root of a checkout:

    python3 perfbench/steady.py                       # every workload, 10 seeds
    python3 perfbench/steady.py --workloads sim_fleet --runs 5

Exits 1 when a spread exceeds its bound, a run fails its checks, the
share of failed operations differs between runs, or a deterministic
output does not repeat.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 1


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit("%s seed %d: run failed" % (workload, seed))
    result = json.loads(lines[-1])
    det = {}
    for line in lines:
        if line.startswith("deterministic "):
            det = json.loads(line[len("deterministic "):])
    return result, det


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for wl in args.workloads.split(","):
        values = {name: [] for name in bounds}
        shares = set()
        first_det = None
        for i in range(args.runs):
            seed = FIRST_SEED + i
            res, det = run_once(wl, seed, seconds)
            if i == 0:
                first_det = det
            if not res["correct"]:
                print("%s seed %d: correctness checks failed" % (wl, seed))
                ok = False
            shares.add((res["failed"], res["attempted"]) if res["failed"]
                       else 0)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
        print("== %s: %d runs, %ss each" % (wl, args.runs, seconds))
        print("   %-22s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > bounds[name]:
                flag = "OVER BOUND"
                ok = False
            elif spread > bounds[name] / 3:
                flag = "over bound/3"
            print("   %-22s %14.6g %14.6g %14.6g %8.4f %6.3f %s" %
                  (name, med, q1, q3, spread, bounds[name], flag))
            print("      runs: %s" % " ".join("%.4g" % v for v in vals))
        if len(shares) > 1 or shares != {0}:
            print("   failed operations: %s" % sorted(shares, key=str))
            if len(shares) > 1:
                ok = False
        _, again = run_once(wl, FIRST_SEED, seconds)
        if again != first_det:
            print("   deterministic outputs differ on a rerun of seed %d:"
                  % FIRST_SEED)
            print("     first %s\n     again %s" % (first_det, again))
            ok = False
        else:
            print("   deterministic outputs repeat exactly (%d values)"
                  % len(again))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
