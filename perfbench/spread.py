#!/usr/bin/env python3
"""Runs perfbench workloads over a range of seeds and summarizes them.

For each workload and end-to-end metric it prints the median over the
seeds and the quartile spread (Q3 - Q1) / median, with quartiles as
Python's statistics.quantiles(values, n=4) gives them. It ends with one
JSON line: a trajectory record (see trajectory.jsonl).

Run from the repository root:

    python3 perfbench/spread.py --seeds 10 --seconds 20
    python3 perfbench/spread.py --workloads deep --seeds 5
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["arith", "deep", "service", "verify"]


def run(workload, seed, seconds):
    cmd = [
        "cargo", "run", "--release", "--quiet", "--offline",
        "--manifest-path", "perfbench/Cargo.toml", "--",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} failed:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs incorrect\n{out.stderr}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--label", default="")
    args = ap.parse_args()

    record = {"label": args.label, "cores": os.cpu_count(),
              "seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for w in args.workloads.split(","):
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.time()
            r = run(w, seed, args.seconds)
            for name, m in r["metrics"].items():
                values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
            print(f"{w} seed {seed}: {time.time() - t0:.1f} s, "
                  f"wall_s {r['metrics']['wall_s']['value']:.4f}", flush=True)
        rows = {}
        for name, (vs, unit) in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "unit": unit}
            print(f"  {name:<14} median {med:<12.6g} {unit:<6} "
                  f"spread {spread:.4f}  min {min(vs):.6g}  max {max(vs):.6g}")
        record["workloads"][w] = rows
    print(json.dumps(record))


if __name__ == "__main__":
    main()
