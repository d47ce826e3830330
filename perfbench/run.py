#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  Builds the libraries under src/ and the
benchmark program from source into .bench_build/perfbench (CMake, Release),
trains the weight cache once in a process of its own, then runs one
measurement.  The program's last line of standard output is the result
JSON; build output goes to standard error.  Exits non-zero, without a
result, when the sources or the build are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("mnist-dd", "cifar-cf", "mnist-sweep", "service-mixed")
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
MODEL_DIR = os.path.join(ROOT, ".bench_build", "models")
BINARY = os.path.join(BUILD_DIR, "perfbench")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def scratch_env():
    """The environment for child processes, with temporary files kept
    inside the checkout."""
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        result = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr, timeout=timeout,
                                env=scratch_env())
    except (OSError, subprocess.TimeoutExpired) as error:
        log(f"{cmd[0]} failed: {error}")
        return False
    return result.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/CMakeLists.txt) not found; run from a checkout root")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if not run_quiet(configure, 600):
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs], 840)


def prepare():
    """Train the reference models into the weight cache, if not there yet."""
    wanted = ("mnist_cnn_v1.scew", "cifar_cnn_v1.scew")
    if all(os.path.isfile(os.path.join(MODEL_DIR, f)) for f in wanted):
        return True
    return run_quiet([BINARY, "--workload", "prepare"], 600)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build() or not os.path.isfile(BINARY):
        log("build failed")
        return 3
    if not prepare():
        log("could not prepare the weight cache")
        return 3
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                                env=scratch_env())
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 4
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
