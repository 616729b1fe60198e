#!/usr/bin/env python3
"""Builds and runs the dpma methodology benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: functional, markov-sweep, first-passage, general-sim (see
BENCHMARK.json).  The first call configures and builds the libraries and the
`perfbench` binary in .bench_build/perfbench (Release, Ninja when available);
later calls only let the build tool confirm it is up to date.  Build output
goes to stderr, so the last line on stdout is the benchmark's JSON result.
A traced run (--trace 1) also writes a Chrome trace of the benchmark's spans
to .bench_build/perfbench/trace-<workload>.json.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no dpma sources next to perfbench/; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found on PATH")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        # Concurrent runs in one checkout build once, one after the other.
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja") is not None:
                configure += ["-G", "Ninja"]
            subprocess.run(configure, check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    try:
        binary = build()
    except subprocess.CalledProcessError as error:
        fail("build failed (%s)" % error)
    command = [binary, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace, "--root", ROOT]
    if args.trace == "1":
        command += ["--trace-out", os.path.join(BUILD, "trace-%s.json" % args.workload)]
    # The binary also drops every DPMA_* variable itself; doing it here keeps
    # the child's environment free of them from the start.
    env = {k: v for k, v in os.environ.items() if not k.startswith("DPMA_")}
    sys.stdout.flush()
    return subprocess.run(command, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
