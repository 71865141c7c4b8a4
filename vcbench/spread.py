#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 vcbench/spread.py --workload burst [--seeds 1-10] [--sets 2] \
        [--seconds 30] [--trace 0]

For every metric and every set of runs it prints the median over the runs
and the distance between the first and third quartile as a share of that
median (statistics.quantiles, n=4), next to the bound BENCHMARK.json fixes,
plus the failed share of operations. With more than one set, each later set
is compared with the first: the gap is how much worse its median is, as a
share of the first median (negative: better). Run from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def run_set(args, seconds):
    values, shares = {}, []
    for seed in seeds(args.seeds):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace],
            stdout=subprocess.PIPE, text=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        shares.append(result["failed"] / result["attempted"])
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return values, shares


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    first = None
    for n in range(1, args.sets + 1):
        print("== set %d" % n, flush=True)
        values, shares = run_set(args, seconds)
        print("failed share per run:", sorted(set(shares)))
        medians = {}
        for name, v in sorted(values.items()):
            med = medians[name] = statistics.median(v)
            q = statistics.quantiles(v, n=4) if len(v) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            m = metrics.get(name, {})
            gap = ""
            if first and first.get(name):
                worse = (med - first[name]) / first[name]
                if m.get("better") == "higher":
                    worse = -worse
                gap = "  gap %+6.3f" % worse
            print("%-44s median %12.4f  spread %6.3f  bound %s%s  [%s]" % (
                name, med, spread, m.get("bound", "-"), gap,
                " ".join("%.4g" % x for x in v)), flush=True)
        first = first or medians


if __name__ == "__main__":
    main()
