#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload htap|wire --seed N --seconds S --trace 0|1

Run it from the repository root. The first call configures and builds
perfbench/ (engine sources from src/) into .bench_build/ ($CARGO_TARGET_DIR
when set), in a subdirectory named after this checkout's path, so checkouts
that share one build root never build each other's sources; later calls
only rebuild what changed. The benchmark binary then runs the workload in
its own process. Its stdout is passed through: config
lines, one "metric <name> <value> <unit> n=<samples>" line per metric, and
as the last line a JSON object with correct/attempted/failed/metrics. The
JSON carries the end-to-end metrics, or with --trace 1 the per-layer ones.

Exit codes: 0 ok, 1 a correctness check failed, 2 bad arguments or missing
sources, 3 build failed, 4 the run timed out or printed no valid result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not (ROOT / "src").is_dir():
        fail(2, f"engine sources not found under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail(3, "cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail(3, "build failed")
    return build_dir / "perfbench"


def expected_metrics(traced):
    """Metric names BENCHMARK.json lists for this mode (None if absent)."""
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if traced else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["htap", "wire"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        fail(2, "--seconds must be positive")

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    checkout = hashlib.sha1(str(HERE).encode()).hexdigest()[:12]
    work_dir = build_root / f"perfbench-{checkout}"
    exe = build(work_dir)
    data_dir = work_dir / "data" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir(parents=True)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data_dir", str(data_dir)]
    if args.trace:
        spans_dir = work_dir / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans_out", str(spans_dir / f"{args.workload}.tsv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        fail(4, f"no result line (exit code {proc.returncode})")
    expected = expected_metrics(bool(args.trace))
    if expected is not None and set(result["metrics"]) != expected:
        sys.stdout.write(proc.stdout)
        fail(4, "metric names differ from BENCHMARK.json: " +
             ", ".join(sorted(set(result["metrics"]) ^ expected)))
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
