#!/usr/bin/env python3
"""Builds and runs the end-to-end XMark benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--inject <fault>] [--smoke]

Run it from the repository root. The first call configures and builds the
engine and the benchmark (Release, the engine's own flags) under
.bench_build/e2ebench; later calls only rebuild what changed. The program's
standard output passes through, so its last line is the result object.
With --trace 1 the spans are written to .bench_build/traces/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "e2ebench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "xmark", "engine.h")):
        sys.exit("run.py: the engine's sources (src/) are not in this tree")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit(f"run.py: build step failed: {' '.join(step)}")
    return os.path.join(BUILD_DIR, "xmark_e2e")


def source_version():
    """The git commit, or a digest of src/ when the tree is not a repo."""
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--inject")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--git", source_version()]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    if args.inject:
        command += ["--inject", args.inject]
    if args.smoke:
        command.append("--smoke")
    sys.stdout.flush()
    try:
        done = subprocess.run(command, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: the benchmark did not finish in {RUN_TIMEOUT_S} s")
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
