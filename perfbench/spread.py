#!/usr/bin/env python3
"""Run each workload repeatedly and print the spread of every metric.

    python3 perfbench/spread.py [--workloads eco,full,serve] [--runs 10]
        [--first-seed 1] [--same-seed]

Run from the root of a checkout. Each run lasts BENCHMARK.json's
run_seconds and uses the next seed, as the acceptance of a change does,
so the spread holds the seeds' share too; with --same-seed every run uses
the first seed. For every end-to-end metric it prints the median, the
first and third quartiles (Python's statistics.quantiles, n=4), the
interquartile range as a share of the median, and the metric's bound from
BENCHMARK.json. A spread above a third of its bound is flagged `WIDE`;
`setup_s` is flagged too, though its spread is not held to the bound. It
also prints the share of failed operations, which must be the same in
every run, and the range of vCPU steal time (from /proc/stat) over the
runs: the host's share of noise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def cpu_ticks():
    """(steal, total) jiffies of the host's vCPUs, from /proc/stat."""
    with open("/proc/stat", encoding="utf-8") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true",
                        help="run every time with --first-seed: the program's and the host's noise alone")
    opts = parser.parse_args()
    metrics = bench["end_to_end"]

    status = 0
    for workload in opts.workloads.split(","):
        values = {m["name"]: [] for m in metrics}
        shares = set()
        steal = []
        for i in range(opts.runs):
            seed = opts.first_seed + (0 if opts.same_seed else i)
            before = cpu_ticks()
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, check=False)
            after = cpu_ticks()
            steal.append(100.0 * (after[0] - before[0]) / max(1, after[1] - before[1]))
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}, no result")
                status = 1
                continue
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output")
                status = 1
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                if name in values:
                    values[name].append(m["value"])
        failed = {f / a for f, a in shares}
        print(f"\n{workload}: {opts.runs} runs, failed share {sorted(failed)}, "
              f"vCPU steal {min(steal):.1f}-{max(steal):.1f}%")
        print(f"  {'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}{'iqr/med':>9}{'bound':>7}")
        for m in metrics:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = "  WIDE" if spread > m["bound"] / 3 else ""
            print(f"  {m['name']:<26}{med:>12.4f}{q1:>12.4f}{q3:>12.4f}"
                  f"{spread:>9.3f}{m['bound']:>7}{flag}")
    return status


if __name__ == "__main__":
    sys.exit(main())
