#!/usr/bin/env python3
"""Kill-point recovery harness.

Repeatedly SIGKILLs a crash_driver workload process at a randomized moment
and asserts that Database::Open recovers to a digest-consistent state.
The random kill delay, the small WAL segments and the frequent automatic
checkpoints make the kill land mid-commit, mid-checkpoint and mid-log-
rotation across iterations; the driver's verify mode proves atomicity
(balance conservation), durability (no acknowledged commit lost) and — on
single-threaded iterations — bit-exact prefix equality against an
in-memory re-simulation.

Most iterations additionally run the tiered cold store (tiny
cold_budget_bytes plus a spillable archive table) and cycle armed fault
points through extent publication (extent.publish.pre/post), the
checkpoint manifest flip (ckpt.publish.pre/post) and the group-commit
flush (wal.flush.post), so kills land inside the extent fsync→rename
protocol, the incremental-checkpoint publish and between a durable
write and its acknowledgement;
each cold iteration also asserts recovery pruned every orphaned .tmp
extent.

Usage:
  crash_recovery_harness.py --driver build/tools/crash_driver \
      [--iterations 24] [--max-run-ms 1500] [--seed 1234] [--workdir DIR]

Exit code 0 iff every iteration recovered consistently.
"""

import argparse
import glob
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time

from harness_common import sigkill, wait_for_line

# Fault shapes, cycled across the cold-tier iterations. The
# probabilities keep the bootstrap phase (which publishes a dozen-plus
# extents while spilling the archive table) likely to survive, so kills
# land across both bootstrap and steady-state extent publication, plus
# the incremental-checkpoint manifest flip. wal.flush.post dies after a
# commit batch is on disk but before any of its commits is acknowledged;
# at 0.005 per flush the bootstrap (a handful of flushes) survives and the
# kill lands among steady-state group commits.
FAULT_SHAPES = [
    None,
    "extent.publish.pre:kill:0.05",
    "extent.publish.post:kill:0.05",
    "ckpt.publish.pre:kill:0.5",
    "ckpt.publish.post:kill:0.5",
    "wal.flush.post:kill:0.005",
]


def run_iteration(args, iteration, rng):
    workdir = os.path.join(args.workdir, f"iter-{iteration}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    # Alternate shapes: single-threaded iterations get the strongest check
    # (digest re-simulation); multi-threaded ones stress group commit and
    # concurrent checkpointing under the conservation + durability checks.
    # Most iterations also run the cold tier (spillable extents + archive
    # churn); every fourth keeps the classic RAM-resident shape.
    threads = 1 if iteration % 2 == 0 else 4
    cold = iteration % 4 != 3
    fault = FAULT_SHAPES[iteration % len(FAULT_SHAPES)] if cold else None
    seed = args.seed + 1000 * iteration
    common = [
        f"--dir={workdir}",
        f"--threads={threads}",
        f"--seed={seed}",
        f"--accounts={args.accounts}",
        f"--ckpt_every={args.ckpt_every}",
        f"--segment_bytes={args.segment_bytes}",
        "--durability=group_commit",
    ]
    if cold:
        common += [f"--cold_budget={args.cold_budget}",
                   "--cold_segment_rows=1024"]

    env = dict(os.environ)
    env.pop("ANKER_FAULTS", None)
    if fault:
        env["ANKER_FAULTS"] = fault
        env["ANKER_FAULT_SEED"] = str(seed)
    proc = subprocess.Popen(
        [args.driver, "--mode=run"] + common,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
    )
    try:
        if wait_for_line(proc, b"READY", timeout_s=60) is None:
            if fault is None or proc.poll() is None:
                print(f"iter {iteration}: driver never became READY "
                      f"(seed={seed})", flush=True)
                return False
            # An armed fault point killed the driver during bootstrap —
            # itself a kill point worth verifying recovery from.
        else:
            # The randomized kill point: anywhere from "barely started" to
            # "thousands of commits and several checkpoints in". An armed
            # fault may beat the timer; either way the process dies hard.
            time.sleep(rng.uniform(0.0, args.max_run_ms / 1000.0))
    finally:
        sigkill(proc)

    verify = subprocess.run(
        [args.driver, "--mode=verify"] + common,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env={k: v for k, v in os.environ.items() if k != "ANKER_FAULTS"},
    )
    out = verify.stdout.decode(errors="replace").strip()
    shape = f"threads={threads}" + (", cold" if cold else "") + \
        (f", fault={fault}" if fault else "")
    print(f"iter {iteration} ({shape}): {out}", flush=True)
    if verify.returncode != 0:
        print(f"iter {iteration}: replay with --seed {args.seed} "
              f"(iteration seed {seed})", flush=True)
        return False
    if cold:
        # Recovery (which verify just ran) must have pruned every orphaned
        # temporary extent the kill left behind.
        stray = glob.glob(os.path.join(workdir, "extents", "*.tmp"))
        if stray:
            print(f"iter {iteration}: orphaned tmp extents survived "
                  f"recovery: {stray}", flush=True)
            return False
    shutil.rmtree(workdir, ignore_errors=True)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--driver", required=True,
                        help="path to the crash_driver binary")
    parser.add_argument("--iterations", type=int, default=24)
    parser.add_argument("--max-run-ms", type=float, default=1500,
                        help="upper bound of the randomized kill delay")
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--accounts", type=int, default=1024)
    parser.add_argument("--ckpt_every", type=int, default=4000)
    parser.add_argument("--segment_bytes", type=int, default=1 << 16)
    parser.add_argument("--cold_budget", type=int, default=1,
                        help="cold_budget_bytes for the cold-tier "
                             "iterations (tiny by default so everything "
                             "spillable spills)")
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tempdir; "
                             "use tmpfs, e.g. /dev/shm, for speed)")
    args = parser.parse_args()

    if not os.path.exists(args.driver):
        print(f"driver not found: {args.driver}")
        return 2

    owns_workdir = args.workdir is None
    if owns_workdir:
        args.workdir = tempfile.mkdtemp(prefix="anker_crash_")
    os.makedirs(args.workdir, exist_ok=True)

    rng = random.Random(args.seed)
    failures = 0
    try:
        for iteration in range(args.iterations):
            if not run_iteration(args, iteration, rng):
                failures += 1
    finally:
        if owns_workdir and failures == 0:
            shutil.rmtree(args.workdir, ignore_errors=True)

    if failures:
        print(f"FAILED: {failures}/{args.iterations} iterations "
              f"(seed={args.seed}, scratch kept at {args.workdir})")
        return 1
    print(f"PASSED: {args.iterations}/{args.iterations} kill-point "
          f"iterations recovered consistently")
    return 0


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    sys.exit(main())
