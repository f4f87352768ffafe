#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs the benchmark's command (from BENCHMARK.json) RUNS times per workload,
each time with another seed, and prints for every metric the median of its
values and the distance between their first and third quartiles as a share
of the median, next to the metric's bound. Run from the root of the
checkout:

    python3 perfbench/spread.py --runs 10 --seed0 100 [--trace 1] [WORKLOAD ...]

--json FILE also writes every run's values, so two sets can be compared
with --compare A.json B.json (the second set's median against the first).
"""

import argparse
import json
import statistics
import subprocess
import sys


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, check=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, ((q3 - q1) / med if med else 0.0)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("workloads", nargs="*")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=0)
    p.add_argument("--trace", type=int, default=0, choices=[0, 1])
    p.add_argument("--json")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    a = p.parse_args()
    bench = spec()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    if a.compare:
        first, second = (json.load(open(f)) for f in a.compare)
        for w in first:
            for m in first[w]:
                m1 = statistics.median(first[w][m])
                m2 = statistics.median(second[w][m])
                worse = (m2 - m1) / m1 if m1 else 0.0
                print(f"{w:8} {m:24} {m1:14.6g} {m2:14.6g} "
                      f"{worse:+8.3f} bound {bounds.get(m)}")
        return
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    values = {}
    for w in workloads:
        runs = [run_once(bench, w, a.seed0 + i, a.trace) for i in range(a.runs)]
        values[w] = {m: [r[m] for r in runs] for m in runs[0]}
        for m, vs in values[w].items():
            med, s = spread(vs)
            b = bounds.get(m)
            flag = "" if b is None or s < b / 3 else "  <-- spread >= bound/3"
            print(f"{w:8} {m:24} median {med:14.6g} spread {s:8.4f} "
                  f"bound {b}{flag}", flush=True)
    if a.json:
        with open(a.json, "w") as f:
            json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()
