#!/usr/bin/env python3
"""Run every workload on two seeds plus one traced run, and print all metrics.

    python3 perfbench/report.py

Seed 1 is the primary seed; seed 2 shows that a figure is not tuned to
one seed. Each run measures for BENCHMARK.json's `run_seconds`. The
traced run (on seed 1) gives the per-layer metrics, the unattributed
residual and the tracing overhead. Exits non-zero if any run fails or
reports an error.
"""

import json
import os
import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SEEDS = (1, 2)


def load_spec():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one(binary, workload, seed, seconds, trace):
    code, out = bench.run(binary, workload, seed, seconds, trace)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit code {code}")
    record = next((json.loads(l[len("record "):]) for l in lines if l.startswith("record ")), {})
    return json.loads(lines[-1]), record


def main():
    spec = load_spec()
    seconds = spec["run_seconds"]
    binary = bench.build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    workloads = [w["name"] for w in spec["workloads"]]
    ok = True
    for w in workloads:
        runs = [one(binary, w, s, seconds, 0) for s in SEEDS]
        traced, record = one(binary, w, SEEDS[0], seconds, 1)
        print(f"\n== {w}   (nproc {record.get('nproc')}, {record.get('rustc')}, "
              f"commit {record.get('commit', 'unknown')[:12]}, input {record.get('input')})")
        header = "".join(f"{'seed ' + str(s):>18}" for s in SEEDS)
        print(f"  {'end-to-end metric':<34}{header}")
        for m in spec["end_to_end"]:
            cells = "".join(f"{r['metrics'][m['name']]['value']:>18.6g}" for r, _ in runs)
            print(f"  {m['name'] + ' [' + m['unit'] + ']':<34}{cells}")
        for r in [r for r, _ in runs] + [traced]:
            ok &= r["correct"] and r["failed"] == 0
        errs = "".join(f"{r['failed'] / r['attempted']:>18.6g}" for r, _ in runs)
        print(f"  {'error_rate':<34}{errs}")
        print(f"  {'per-layer metric (traced, seed ' + str(SEEDS[0]) + ')':<34}")
        for m in spec["per_layer"]:
            v = traced["metrics"][m["name"]]["value"]
            print(f"  {m['name'] + ' [' + m['unit'] + ']':<34}{v:>18.6g}")
    print("\nall runs correct" if ok else "\nSOME RUNS REPORTED ERRORS")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
