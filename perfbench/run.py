#!/usr/bin/env python3
"""Builds the end-to-end benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload paper_tasks --seed 1 --seconds 30 --trace 0

Run it from the root of the repository. The build goes to .bench_build/ at
the root; a traced run (--trace 1) writes its spans to .bench_build/traces/.
The last line of stdout is the result line of the workload binary.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")


def build(target):
    """Configures and builds `target`; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", BUILD, "--target", target, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.exit("perfbench: no library sources next to the benchmark")
    build("perfbench")
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.json" % (args.workload, args.seed))]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
