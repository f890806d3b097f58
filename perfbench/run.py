#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs it.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload codefoot --seed 1 --seconds 36 --trace 0

The first call configures and builds perfbench (and the program libraries
it links) under .bench_build/perfbench in Release mode; later calls only
re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. With --trace 1 the Chrome trace is
written to .bench_build/perfbench/traces/ unless --trace-out is given.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit("perfbench: build step failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no program sources at "
                 + os.path.join(ROOT, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
               "-j", jobs])
    return os.path.join(BUILD, "perfbench")


def main(argv):
    binary = build()
    args = list(argv)
    if "--trace-out" not in args and _flag(args, "--trace") == "1":
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        name = "%s-seed%s.json" % (_flag(args, "--workload") or "run",
                                   _flag(args, "--seed") or "0")
        args += ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args).returncode


def _flag(args, name):
    """Value following flag `name` in `args`, or None."""
    for i, arg in enumerate(args[:-1]):
        if arg == name:
            return args[i + 1]
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
