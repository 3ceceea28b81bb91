#!/usr/bin/env python3
"""End-to-end benchmark of the SPAM/PSM program (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --negative-control

Builds the benchmark and the program's libraries from this checkout's
sources into .bench_build/perfbench (CMake, Release), then runs one
measurement. The last line of standard output is the result as one JSON
object. Exits non-zero, without a result, when the sources or the build
are missing or broken.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(command, log_path):
    with open(log_path, "a") as log:
        log.write("$ " + " ".join(command) + "\n")
        log.flush()
        try:
            done = subprocess.run(command, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return False
    return done.returncode == 0


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("program sources not found: expected src/ next to perfbench/")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "perfbench-build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if not run_logged(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
                          + generator, log_path):
            fail("configure failed; see " + log_path)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not run_logged(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
                      log_path):
        fail("build failed; see " + log_path)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--negative-control", action="store_true",
                        help="check that the reference checker rejects corrupted output")
    args = parser.parse_args()
    if not args.negative_control and not args.workload:
        parser.error("--workload is required")

    build()
    if args.negative_control:
        command = [BINARY, "--negative-control"]
    else:
        command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", args.trace]
        if args.trace == "1":
            trace_dir = os.path.join(BUILD_ROOT, "trace")
            os.makedirs(trace_dir, exist_ok=True)
            command += ["--trace-out",
                        os.path.join(trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
