#!/usr/bin/env python3
"""End-to-end benchmark of Mural: builds the benchmark, then runs one workload.

Usage, from the repository root:

    python3 e2ebench/run.py --workload lex_search_1c --seed 1 --seconds 16 --trace 0

The first call configures and builds e2ebench/ (the engine sources under
src/ plus the benchmark) with CMake into .bench_build/e2ebench in Release
mode; later calls rebuild only what changed.  It then runs the self-tests
of the benchmark's own logic and the benchmark itself, whose last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones and
writes the spans to .bench_out/.  See mural_e2e.cc for the workloads.
Build output goes to standard error.  Exits non-zero, printing no result,
when the build, the self-tests or the run fail.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("lex_search_1c", "catalog_oltp_4c", "crossling_report_1c")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    if not build():
        print("e2ebench: build failed", file=sys.stderr)
        return 1
    selftest = subprocess.run([os.path.join(BUILD_DIR, "e2e_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode:
        return 1
    cmd = [os.path.join(BUILD_DIR, "mural_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
