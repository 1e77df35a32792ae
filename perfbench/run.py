#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload select-cpu --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --test

The first form builds perfbench/ (which compiles ../src) in Release under
.bench_build/perfbench at the checkout root, then runs the benchmark with
the given arguments; its last line of output is the JSON result. The
second runs every workload in turn, each in its own process. The third
builds and runs the harness's own tests. Exit status 2 means the build
failed and nothing ran.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["select-cpu", "search-rd", "serve-remote"]


def build(target):
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", SOURCE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        ["cmake", "--build", BUILD, "-j", jobs, "--target", target],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode:
                break
        else:
            return True
    with open(log_path) as log:
        sys.stderr.write("".join(log.readlines()[-40:]))
    sys.stderr.write("perfbench: build failed, see %s\n" % log_path)
    return False


def main(args):
    target = "perfbench_test" if args == ["--test"] else "perfbench"
    if not build(target):
        return 2
    binary = os.path.join(BUILD, target)
    if target == "perfbench_test":
        return subprocess.run([binary]).returncode
    at = args.index("--workload") + 1 if "--workload" in args[:-1] else 0
    if at and args[at] == "all":
        status = 0
        for workload in WORKLOADS:
            run = args[:at] + [workload] + args[at + 1:]
            status = max(status, subprocess.run([binary] + run).returncode)
        return status
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
