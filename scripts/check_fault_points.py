#!/usr/bin/env python3
"""Fault-point coverage check (CI: the fault-point step).

Lists every fault point src/ names — `FaultInjector::MaybeKill("p")`
(kill) and `ShouldFail("p")` (fail) — next to the harnesses and tests
that arm it, and fails when:
  - a point is armed by no file under scripts/, tools/ or tests/, or
  - a point is missing from the registered list in docs/OPERATIONS.md
    (the "Registered points:" paragraph of the fault-drill section).

A file arms a point when it holds an ANKER_FAULTS-style spec
`<point>:<kill|fail>:<probability>` whose mode the point supports: a
`fail` spec on a kill-only point injects nothing.

Usage:
  check_fault_points.py [--root .]

Exit code 0 iff every point is armed and registered.
"""

import argparse
import os
import re
import sys

SITE_RE = re.compile(r'\b(MaybeKill|ShouldFail)\("([^"]+)"\)')
SPEC_RE = re.compile(r'(?<![\w.])([\w.]+):(kill|fail):[0-9.]+')
ARMING_DIRS = ("scripts", "tools", "tests")
SOURCE_EXTS = (".cc", ".h", ".py")


def walk(root, top):
    for dirpath, _, files in os.walk(os.path.join(root, top)):
        for name in sorted(files):
            if name.endswith(SOURCE_EXTS):
                yield os.path.join(dirpath, name)


def read(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".")
    args = parser.parse_args()
    root = args.root

    # point -> {"modes": set of kill/fail, "sites": [path:line]}
    points = {}
    for path in walk(root, "src"):
        for lineno, line in enumerate(read(path).splitlines(), 1):
            for call, point in SITE_RE.findall(line):
                entry = points.setdefault(point, {"modes": set(),
                                                  "sites": []})
                entry["modes"].add("kill" if call == "MaybeKill" else "fail")
                entry["sites"].append(
                    f"{os.path.relpath(path, root)}:{lineno}")

    armed_by = {point: [] for point in points}
    for top in ARMING_DIRS:
        for path in walk(root, top):
            rel = os.path.relpath(path, root)
            for point, mode in set(SPEC_RE.findall(read(path))):
                if point in points and mode in points[point]["modes"]:
                    if rel not in armed_by[point]:
                        armed_by[point].append(rel)

    ops = read(os.path.join(root, "docs", "OPERATIONS.md"))
    start = ops.find("Registered points:")
    end = ops.find("\n\n", start)
    registered = set(re.findall(r"`([^`]+)`", ops[start:end])) \
        if start >= 0 else set()

    failures = []
    for point in sorted(points):
        entry = points[point]
        arms = armed_by[point]
        print(f"{point} ({'/'.join(sorted(entry['modes']))}) "
              f"at {', '.join(entry['sites'])}")
        print(f"    armed by: {', '.join(arms) if arms else 'NONE'}")
        if not arms:
            failures.append(f"{point}: armed by no harness or test")
        if point not in registered:
            failures.append(f"{point}: missing from the registered list "
                            "in docs/OPERATIONS.md")
    print(f"{len(points)} fault points")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
