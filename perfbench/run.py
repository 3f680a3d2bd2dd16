#!/usr/bin/env python3
"""Builds and runs the repository benchmark (rr_perfbench).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ring_cover --seed 1 --seconds 15 --trace 0

Workloads: ring_cover, torus_bulk (see perfbench/README.md).
The benchmark is compiled from the checkout's sources into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), Release
build, then run; its standard output is passed through, so the last line
is the result JSON. --tiny and --corrupt-check are for the benchmark's
own test (perfbench/test_perfbench.py). Exits non-zero, without a result
line, when the build or the run fails; exits 1 with a result line when
an output check failed.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build(out):
    """Configures (once) and builds rr_perfbench; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    generated = [os.path.join(out, f) for f in ("Makefile", "build.ninja")]
    if not any(os.path.exists(f) for f in generated):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "rr_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "rr_perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["ring_cover", "torus_bulk"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-check", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", os.path.join(out, "work")]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_check:
        cmd.append("--corrupt-check")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 2
    if proc.returncode not in (0, 1):
        print(f"perfbench: rr_perfbench exited {proc.returncode}",
              file=sys.stderr)
        return 2
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
