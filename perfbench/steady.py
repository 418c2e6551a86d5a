#!/usr/bin/env python3
"""Checks how steady the benchmark is: N back-to-back runs per workload.

    python3 perfbench/steady.py [--workloads htap,wire] [--runs 10]
                                [--seed0 1] [--seconds S] [--trace 0|1]
                                [--jsonl FILE] [--baseline FILE]

Run it from the repository root. Each run goes through perfbench/run.py
with its own seed (seed0, seed0+1, ...). For every metric it prints the
median, the first and third quartile (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median. With --trace 0 every end-to-end metric's spread
is compared against a third of its bound in BENCHMARK.json; "over" marks a
metric that is not yet steady enough.

--baseline FILE reads the --jsonl output of an earlier set and prints, per
workload and end-to-end metric, this set's median against that set's and
the change in the metric's worse direction; "worse" marks a change beyond
the metric's bound. --runs 0 only compares the two files (--jsonl names
this set). Exits 1 when a run fails, a spread is over or a median is worse.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_jsonl(path):
    """{workload: [result, ...]} from a --jsonl file of untraced runs."""
    sets = {}
    for line in Path(path).read_text().splitlines():
        row = json.loads(line)
        if row["trace"] == 0:
            sets.setdefault(row["workload"], []).append(row["result"])
    return sets


def run_set(args, workload):
    """Runs one workload args.runs times; returns the parsed results."""
    results = []
    for i in range(args.runs):
        seed = args.seed0 + i
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"{workload} seed {seed}: exit {proc.returncode}")
            continue
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        results.append(result)
        if args.jsonl:
            with open(args.jsonl, "a") as out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "trace": args.trace,
                                      "result": result}) + "\n")
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}",
              flush=True)
    return results


def print_spreads(workload, results, seconds, bounds):
    """Prints the spread table; returns False if a spread is over."""
    ok = True
    print(f"\n{workload}: {len(results)} runs of {seconds:g} s")
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound/3':>8s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        spread = (q3 - q1) / median if median else 0.0
        verdict = ""
        if name in bounds:
            verdict = f"{bounds[name]['bound'] / 3:8.4f}"
            if spread >= bounds[name]["bound"] / 3:
                verdict += " over"
                ok = False
        print(f"{name:40s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.4f} {verdict}")
    return ok


def print_comparison(workload, results, baseline, bounds):
    """Prints this set's medians against the baseline set's; returns False
    if one is worse by more than its bound."""
    ok = True
    print(f"\n{workload}: {len(results)} runs against {len(baseline)} "
          f"baseline runs")
    print(f"{'metric':40s} {'baseline':>12s} {'median':>12s} "
          f"{'worse by':>9s} {'bound':>6s}")
    for name, spec in bounds.items():
        before = statistics.median(r["metrics"][name]["value"]
                                   for r in baseline)
        after = statistics.median(r["metrics"][name]["value"]
                                  for r in results)
        if spec["better"] == "lower":
            worse = after / before - 1
        else:
            worse = before / after - 1
        verdict = " worse" if worse > spec["bound"] else ""
        ok &= not verdict
        print(f"{name:40s} {before:12.4f} {after:12.4f} {worse:9.4f} "
              f"{spec['bound']:6.2f}{verdict}")
    return ok


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--jsonl", help="append every result line here")
    parser.add_argument("--baseline", help="--jsonl file of an earlier set")
    args = parser.parse_args()
    if args.runs == 0 and not (args.baseline and args.jsonl):
        parser.error("--runs 0 needs --baseline and --jsonl")

    bounds = {m["name"]: m for m in spec["end_to_end"]} if not args.trace \
        else {}
    baseline = load_jsonl(args.baseline) if args.baseline else {}
    current = load_jsonl(args.jsonl) if args.runs == 0 else {}
    ok = True
    for workload in args.workloads.split(","):
        if args.runs:
            results = run_set(args, workload)
            ok &= len(results) == args.runs
        else:
            results = current.get(workload, [])
        if len(results) < 2:
            ok = False
            continue
        ok &= print_spreads(workload, results, args.seconds, bounds)
        if baseline.get(workload) and bounds:
            ok &= print_comparison(workload, results, baseline[workload],
                                   bounds)
        print()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
