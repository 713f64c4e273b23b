"""Run the benchmark once per seed and report each metric's median, quartiles and spread.

    python3 perfbench/spread.py --workloads fuyau-n32,oracle --seeds 1-10

Run from the repository root.  For each workload and metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, the quantity the bounds in BENCHMARK.json are set
against, plus the share of failed operations.  Each run is untraced and
lasts run_seconds from BENCHMARK.json.  Writes the raw results to
.perfbench_out/spread.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True, help="comma-separated names")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"), help="e.g. 1-10")
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    results = {}
    for workload in args.workloads.split(","):
        runs = results[workload] = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            runs.append(json.loads(out.strip().splitlines()[-1]))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in runs[-1]["metrics"].items()), flush=True)
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: correct={all(r['correct'] for r in runs)} failed shares={sorted(shares)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:14s} median {med:10.5g}  Q1 {q1:10.5g}  Q3 {q3:10.5g}  spread {spread:7.2%}")
    os.makedirs(".perfbench_out", exist_ok=True)
    with open(os.path.join(".perfbench_out", "spread.json"), "w") as fh:
        json.dump(results, fh, indent=1)


if __name__ == "__main__":
    main()
