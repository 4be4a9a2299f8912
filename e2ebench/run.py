#!/usr/bin/env python3
"""Builds and runs the end-to-end AIM benchmark (see README.md).

    python3 e2ebench/run.py --workload fit-heavy --seed 1 --seconds 40 --trace 0

Run from the root of a source tree. The first call configures and builds
the product libraries plus the benchmark program with CMake (Release) under
$CARGO_TARGET_DIR, or .bench_build when that is unset; later calls only
re-check the build. The program's inputs and outputs live in a scratch
directory under the build directory that is removed afterwards. The last
line of standard output is the JSON result.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fit-heavy", "count-heavy")


def log(message):
    print(f"[e2ebench] {message}", file=sys.stderr, flush=True)


def build(build_dir, env):
    cmake_dir = os.path.join(build_dir, "e2ebench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    command = ["cmake", "--build", cmake_dir, "-j", jobs,
               "--target", "aim_e2ebench"]
    if subprocess.run(command, stdout=sys.stderr, env=env).returncode:
        return None
    return os.path.join(cmake_dir, "aim_e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    # Compiler temporaries stay inside the build directory.
    env = dict(os.environ, TMPDIR=tmp_dir)

    binary = build(build_dir, env)
    if binary is None:
        log("build failed")
        return 1

    work_dir = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--work-dir", work_dir]
    try:
        return subprocess.run(command, env=env, cwd=ROOT).returncode
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
