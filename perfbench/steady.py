#!/usr/bin/env python3
"""Steadiness mode: run each workload N times on one commit and report,
for every metric, the median, the quartiles and the spread
(Q3 - Q1) / median, flagging any spread over the metric's bound.

Run from the root of the repository:

    python3 perfbench/steady.py --runs 10                  # every workload
    python3 perfbench/steady.py --runs 5 --workloads cold-grid
    python3 perfbench/steady.py --runs 10 --save a.json    # keep the values
    python3 perfbench/steady.py --runs 10 --against a.json # and compare medians

Each run uses its own seed (1..N, shifted by --seed-base). With
--against, a metric is also flagged when its median is worse than the
saved median by more than its bound. --trace 1 runs the traced mode and
reports the per-layer metrics (no bounds).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True)
    took = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run not correct")
    return result, took


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, before, after):
    """How much worse `after` is than `before`, as a share of `before`."""
    if before == 0:
        return 0.0
    change = (after - before) / before
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    key = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: m for m in bench[key]}
    previous = {}
    if args.against:
        with open(args.against) as f:
            previous = json.load(f)

    saved = {}
    flagged = 0
    for workload in names:
        values = {name: [] for name in metrics}
        for i in range(args.runs):
            seed = args.seed_base + i + 1
            result, took = run_once(bench, workload, seed, args.trace)
            for name in metrics:
                values[name].append(result["metrics"][name]["value"])
            print(f"# {workload} seed {seed}: {took:.1f} s, "
                  f"attempted {result['attempted']}, failed {result['failed']}",
                  flush=True)
        saved[workload] = values
        print(f"{'workload':<12} {'metric':<26} {'median':>14} {'Q1':>14} "
              f"{'Q3':>14} {'spread':>8} {'bound':>6}")
        for name, metric in metrics.items():
            vals = values[name]
            if len(vals) < 2:
                continue
            q1, med, q3, sp = spread(vals)
            bound = metric.get("bound")
            notes = []
            if bound is not None and sp > bound:
                notes.append("SPREAD OVER BOUND")
            elif bound is not None and sp > bound / 3:
                notes.append("over bound/3")
            before = previous.get(workload, {}).get(name)
            if before and bound is not None:
                change = worse_by(metric, statistics.median(before), med)
                notes.append(f"vs saved {change:+.1%}")
                if change > bound:
                    notes.append("MEDIAN WORSE THAN BOUND")
            flagged += any(n.isupper() for n in notes)
            print(f"{workload:<12} {name:<26} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{sp:>8.3f} {bound if bound is not None else '-':>6} "
                  f"{' '.join(notes)}", flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
