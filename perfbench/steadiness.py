#!/usr/bin/env python3
"""A/A steadiness check for the benchmark described by BENCHMARK.json.

Runs the benchmark command once per seed on each workload, untraced, and
prints for every end-to-end metric its median, its quartile spread
(Q3 - Q1 as a share of the median, from statistics.quantiles(n=4)) and
the metric's bound. A spread at or above a third of the bound is marked
"wide"; at or above the bound, "NOISY".

With --compare, the medians of an earlier result file are compared with
this run's: a median worse by more than the bound is marked "WORSE".

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --seed 1000 --out perfbench/out/aa1.json
    python3 perfbench/steadiness.py --runs 10 --seed 2000 --compare perfbench/out/aa1.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect run\n{proc.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}, wall


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1000, help="first seed; run i uses seed + i")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--out", help="write the per-run values here as JSON")
    parser.add_argument("--compare", help="an earlier --out file to compare medians with")
    args = parser.parse_args()

    with open("BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    earlier = {}
    if args.compare:
        with open(args.compare, encoding="utf-8") as f:
            earlier = json.load(f)

    values = {}
    walls = []
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            run, wall = run_once(spec["command"], workload, args.seed + i, spec["run_seconds"])
            runs.append(run)
            walls.append(wall)
            print(f"{workload} seed {args.seed + i} ({wall:.1f} s): " + ", ".join(
                f"{m['name']}={run[m['name']]:.6g}" for m in metrics), flush=True)
        values[workload] = {m["name"]: [r[m["name"]] for r in runs] for m in metrics}

    print(f"\n{'workload':<22} {'metric':<14} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
    for workload in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            vals = values[workload][name]
            med = statistics.median(vals)
            s = spread(vals) if len(vals) >= 2 else 0.0
            verdict = "NOISY" if s >= bound else ("wide" if s >= bound / 3 else "ok")
            if name == "setup_s":
                verdict += " (spread not gated)"
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                change = (med - before) / before
                worse = -change if m["better"] == "higher" else change
                verdict += f"; vs earlier {change:+.1%}" + (" WORSE" if worse > bound else "")
            print(f"{workload:<22} {name:<14} {med:>14.6g} {s:>8.1%} {bound:>6.0%}  {verdict}")

    n_runs = 4 + 22 * len(spec["workloads"])
    print(f"\nmean run {statistics.mean(walls):.1f} s, longest {max(walls):.1f} s; "
          f"{n_runs} runs of the mean take about {n_runs * statistics.mean(walls):.0f} s")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(values, f, indent=1)


if __name__ == "__main__":
    main()
