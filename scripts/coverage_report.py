#!/usr/bin/env python3
"""Line and function coverage of src/ from a --coverage build.

Configure and run a coverage build first, e.g.

    cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug \\
        -DCMAKE_CXX_FLAGS=--coverage -DANKER_BUILD_BENCHMARKS=OFF \\
        -DANKER_HEADER_CHECK=OFF
    cmake --build build-cov -j
    ctest --test-dir build-cov -j
    python3 scripts/coverage_report.py build-cov

The script runs `gcov --json-format --stdout` over every .gcda file in
the build directory, keeps the source files under <root>/src/ and merges
the translation units: a line counts as executed when any unit executed
it, and a function's count is the sum over every unit that compiled it
(header functions and template instantiations are compiled into many
units). It prints the src/ line coverage and every function no unit
executed, one `file:line name` per line. The exit status is 0 whenever a
report was produced; there is no coverage floor.
"""

import argparse
import json
import os
import subprocess
import sys


def find_gcda(build_dir):
    found = []
    for dirpath, _, names in os.walk(build_dir):
        found.extend(os.path.join(dirpath, n) for n in names
                     if n.endswith(".gcda"))
    return sorted(found)


def run_gcov(gcov, files):
    """Returns the decoded JSON documents gcov prints for `files`."""
    out = subprocess.run([gcov, "--json-format", "--stdout", *files],
                         check=True, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL).stdout.decode()
    decoder = json.JSONDecoder()
    docs, pos = [], 0
    while True:
        while pos < len(out) and out[pos].isspace():
            pos += 1
        if pos >= len(out):
            return docs
        doc, pos = decoder.raw_decode(out, pos)
        docs.append(doc)


def merge(docs, src_root, lines, functions):
    """Folds gcov documents into the per-line and per-function maps."""
    for doc in docs:
        cwd = doc.get("current_working_directory", "")
        for entry in doc.get("files", []):
            path = os.path.realpath(os.path.join(cwd, entry["file"]))
            if not path.startswith(src_root + os.sep):
                continue
            rel = os.path.relpath(path, os.path.dirname(src_root))
            for line in entry.get("lines", []):
                key = (rel, line["line_number"])
                lines[key] = max(lines.get(key, 0), line["count"])
            for fn in entry.get("functions", []):
                key = (rel, fn["start_line"], fn.get("start_column", 0))
                name = fn.get("demangled_name", fn["name"])
                count, known = functions.get(key, (0, name))
                # Template instantiations share a location; report the
                # shortest spelling.
                if len(name) < len(known):
                    known = name
                functions[key] = (count + fn["execution_count"], known)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("build_dir", help="build tree of a --coverage build")
    parser.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir),
                        help="repository root (default: this script's repo)")
    parser.add_argument("--gcov", default="gcov", help="gcov binary")
    args = parser.parse_args()

    src_root = os.path.realpath(os.path.join(args.root, "src"))
    gcda = find_gcda(os.path.abspath(args.build_dir))
    if not gcda:
        sys.exit("no .gcda files under %s: build with --coverage and run "
                 "the tests first" % args.build_dir)

    lines, functions = {}, {}
    merge(run_gcov(args.gcov, gcda), src_root, lines, functions)

    executed = sum(1 for count in lines.values() if count > 0)
    total = len(lines)
    pct = 100.0 * executed / total if total else 0.0
    never = sorted((key, name) for key, (count, name) in functions.items()
                   if count == 0)
    print("coverage of src/ from %d .gcda files" % len(gcda))
    print("line coverage: %.1f%% (%d/%d lines)" % (pct, executed, total))
    print("functions: %d, never executed: %d" % (len(functions),
                                                 len(never)))
    for (path, line, _), name in never:
        print("%s:%d %s" % (path, line, name))


if __name__ == "__main__":
    main()
