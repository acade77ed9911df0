#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median and quartile spread (Q3 - Q1, as a share of the median), next to the
metric's bound from BENCHMARK.json.

Usage (from the repository root):
  python3 perfbench/spread.py --workload NAME [--seeds 10] [--first-seed 1]
                              [--seconds N] [--trace 0|1]

Run it after perfbench/run.py has built the benchmark once. A spread above a
third of the bound is flagged; the failed share must be the same in every
run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, shares, walls = {}, set(), []
    ok = True
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", args.trace]
        t0 = time.time()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        walls.append(time.time() - t0)
        if done.returncode != 0:
            print("seed %d: exit %d\n%s" % (seed, done.returncode, done.stderr[-2000:]))
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        shares.add((result["failed"] / result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %.1f s, attempted %d, failed %d, correct %s" %
              (seed, walls[-1], result["attempted"], result["failed"], result["correct"]))
    print("failed shares: %s" % sorted(shares))
    print("run wall time: median %.1f s, max %.1f s" % (statistics.median(walls), max(walls)))
    for name in sorted(values):
        v = values[name]
        med = statistics.median(v)
        q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
        spread = (q[2] - q[0]) / med if med else 0.0
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and spread > bound / 3:
            flag = "  <-- above a third of the bound"
            ok = False
        print("%-24s median %-14.6g spread %6.2f%%  bound %s%s" %
              (name, med, 100 * spread, "-" if bound is None else "%.0f%%" % (100 * bound), flag))
        print("    " + " ".join("%.6g" % x for x in v))
    if len(shares) != 1:
        print("failed share differs between runs")
        ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
