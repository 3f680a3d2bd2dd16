#!/usr/bin/env python3
"""Print line coverage per src/ directory from a gcov-instrumented build.

Reads the .gcda files that a Debug build configured with
-DCMAKE_CXX_FLAGS=--coverage leaves behind after its tests ran, asks gcov
for their line records (JSON intermediate format), and folds them per
source directory under src/. A line counts once per file, however many
translation units compiled it (headers), and counts as covered if any of
them executed it.

Exit code 1 when any directory is below its floor in FLOORS, so the CI
coverage job fails on a drop; raise a floor when coverage rises.

Usage:
  cmake -B build-cov -S . -DCMAKE_BUILD_TYPE=Debug -DCMAKE_CXX_FLAGS=--coverage
  cmake --build build-cov -j && (cd build-cov && ctest -j)
  tools/coverage.py build-cov
"""

import argparse
import json
import os
import subprocess
import sys

# src/ directory -> minimum line coverage (percent). Measured on the
# tier-1 ctest suite and rounded down to a whole percent.
FLOORS = {
    "analysis": 97,
    "common": 93,
    "core": 97,
    "dist": 87,
    "graph": 94,
    "serve": 91,
    "sim": 93,
    "walk": 97,
}

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def gcda_files(build_dir):
    for root, _, files in os.walk(os.path.abspath(build_dir)):
        for name in files:
            if name.endswith(".gcda"):
                yield os.path.join(root, name)


def line_records(gcda):
    """Yields (source path, line number, executed) for one object file."""
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--object-directory",
         os.path.dirname(gcda), gcda],
        capture_output=True, text=True, check=True,
        cwd=os.path.dirname(gcda)).stdout
    # One JSON document per line (gcov emits one per object file).
    for doc in out.splitlines():
        if not doc.strip():
            continue
        data = json.loads(doc)
        cwd = data.get("current_working_directory", "")
        for f in data.get("files", []):
            path = os.path.normpath(os.path.join(cwd, f["file"]))
            for line in f.get("lines", []):
                yield path, line["line_number"], line["count"] > 0


def coverage_by_dir(build_dir):
    """src/ directory -> (covered lines, instrumented lines)."""
    lines = {}  # (path, line) -> executed in any translation unit
    for gcda in gcda_files(build_dir):
        for path, number, hit in line_records(gcda):
            if os.path.commonpath([path, SRC]) != SRC:
                continue
            key = (path, number)
            lines[key] = lines.get(key, False) or hit
    totals = {}
    for (path, _), hit in lines.items():
        top = os.path.relpath(path, SRC).split(os.sep)[0]
        covered, total = totals.get(top, (0, 0))
        totals[top] = (covered + hit, total + 1)
    return totals


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("build_dir",
                        help="build tree of a --coverage build after ctest")
    args = parser.parse_args()
    totals = coverage_by_dir(args.build_dir)
    if not totals:
        print("coverage: no .gcda data under %s (was the build configured "
              "with --coverage and were the tests run?)" % args.build_dir)
        return 1
    failed = False
    print("%-10s %8s %8s %7s %6s" % ("src/", "covered", "lines", "cover",
                                     "floor"))
    for top in sorted(totals):
        covered, total = totals[top]
        percent = 100.0 * covered / total
        floor = FLOORS.get(top)
        below = floor is not None and percent < floor
        failed = failed or below
        print("%-10s %8d %8d %6.1f%% %5s%s" % (
            top, covered, total, percent,
            "-" if floor is None else "%d%%" % floor,
            "  BELOW FLOOR" if below else ""))
    missing = sorted(set(FLOORS) - set(totals))
    for top in missing:
        print("%-10s no coverage data (floor %d%%)  BELOW FLOOR" %
              (top, FLOORS[top]))
    return 1 if failed or missing else 0


if __name__ == "__main__":
    sys.exit(main())
