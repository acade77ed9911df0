#!/usr/bin/env python3
"""Self-tests of the benchmark: its checks catch planted faults, and two runs
with the same seed report the same counts.

Usage (from the repository root, after perfbench/run.py has built once):
  python3 perfbench/selftest.py

1. cold-corpus and cold-kernels with the testgen planted copy-loop bug
   (installed through Compiler::replacePass) must report failed operations
   beyond the known faults; warm-sweep with one byte of a served artifact
   flipped must fail its identity check.
2. Two short runs of every workload with the same seed must report identical
   offchip_elems, reply_bytes, emit.calls, tilesearch.evals and
   pipeline.mapped, and the same list of failed operations.
Exits 0 when every test passes.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))
KNOWN = {"s7#17", "s12345#131"}


def run(workload, trace, *extra):
    cmd = [os.path.join(BUILD, "perfbench"), "--daemon-binary", os.path.join(BUILD, "emmapcd"),
           "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--rounds", "2"] + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError("%s exited %d: %s" % (" ".join(cmd), done.returncode, done.stderr))
    lines = done.stdout.strip().splitlines()
    failed = sorted(l.split()[2].rstrip(":") for l in lines if l.startswith("failed op "))
    return json.loads(lines[-1]), failed


def main():
    ok = True

    def report(name, passed, detail=""):
        nonlocal ok
        ok = ok and passed
        print("%-52s %s %s" % (name, "PASS" if passed else "FAIL", detail))

    for workload in ("cold-corpus", "cold-kernels"):
        result, failed = run(workload, 0, "--plant-bug")
        caught = [f for f in failed if f not in KNOWN]
        report("planted copy-loop bug caught in " + workload,
               bool(caught) and not result["correct"], "(%d failed ops)" % result["failed"])
    result, failed = run("warm-sweep", 0, "--corrupt-artifact")
    report("flipped artifact byte caught in warm-sweep",
           result["failed"] > 0 and not result["correct"], "(%s)" % ", ".join(failed))

    for workload in ("cold-kernels", "cold-corpus", "warm-sweep", "daemon-mix"):
        a, fa = run(workload, 0)
        b, fb = run(workload, 0)
        ta, _ = run(workload, 1)
        tb, _ = run(workload, 1)
        same = fa == fb
        for name in ("offchip_elems", "reply_bytes"):
            same = same and a["metrics"][name]["value"] == b["metrics"][name]["value"]
        for name in ("emit.calls", "tilesearch.evals", "pipeline.mapped"):
            same = same and ta["metrics"][name]["value"] == tb["metrics"][name]["value"]
        report("same seed, same counts in " + workload, same,
               "(offchip %g, reply %g, emit %g, evals %g, mapped %g, failed %s)" % (
                   a["metrics"]["offchip_elems"]["value"], a["metrics"]["reply_bytes"]["value"],
                   ta["metrics"]["emit.calls"]["value"], ta["metrics"]["tilesearch.evals"]["value"],
                   ta["metrics"]["pipeline.mapped"]["value"], fa))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
