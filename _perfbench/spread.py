#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed, sequentially, and prints for every
metric its median, interquartile spread (Q3-Q1 over the median, as
statistics.quantiles(values, n=4) gives the quartiles) and max-min
spread (over the median). With --trace 0 it also reports the raw wall.*
figures each run prints on standard error next to their normalized
counterparts. From the repository root:

    python3 _perfbench/spread.py --workload price-miss --seeds 1-10 --seconds 25
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    med = statistics.median(values)
    if med == 0:
        return med, 0.0, 0.0
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return med, (q[2] - q[0]) / abs(med), (max(values) - min(values)) / abs(med)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", default="25")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    runs = []
    for seed in args.seeds:
        cmd = ["bash", "_perfbench/run.sh", "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", args.trace]
        p = subprocess.run(cmd, capture_output=True, text=True)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {p.returncode}\n{p.stderr}")
        res = json.loads(lines[-1])
        values = {k: v["value"] for k, v in res["metrics"].items()}
        for k, v in re.findall(r"(\S+)=([-0-9.e+]+)", p.stderr):
            if "." in k or k.startswith("latency"):
                values.setdefault("stderr:" + k, float(v))
        print(f"seed {seed}: attempted={res['attempted']} failed={res['failed']} correct={res['correct']}",
              file=sys.stderr)
        runs.append(values)

    names = sorted(set().union(*runs))
    print(f"| {args.workload} metric | median | IQR/median | (max-min)/median |")
    print("|---|---|---|---|")
    for name in names:
        vals = [r[name] for r in runs if name in r]
        med, iqr, rng = spread(vals)
        print(f"| {name} | {med:.6g} | {100 * iqr:.1f}% | {100 * rng:.1f}% |")


if __name__ == "__main__":
    main()
