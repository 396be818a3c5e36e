#!/usr/bin/env python3
"""Build and run the NUcache end-to-end benchmark.

Run one workload (the last line of standard output is the result):

    python3 e2ebench/run.py --workload fig_grid --seed 1 --seconds 40 --trace 0

Workloads: fig_grid, serve_inline (the two BENCHMARK.json lists) and
serve_exact.  --trace 1 runs the traced variant and reports the
per-layer split instead of the end-to-end metrics.  Other entry points:

    python3 e2ebench/run.py --selftest        # the benchmark's own tests
    python3 e2ebench/run.py --write-golden    # refresh golden.json

The simulator is compiled from this checkout's sources into
$CARGO_TARGET_DIR (default .bench_build at the checkout root) before
every run; an up-to-date build costs a second.  BENCHMARK.md in this
directory describes the workloads and metrics.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(target):
    """Configure (once) and build @p target; return the build dir."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under " + ROOT + "/src")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for step in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            done = subprocess.run(step, stdout=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return out


def run(command):
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["fig_grid", "serve_exact", "serve_inline"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--write-golden", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        out = build("e2ebench_tests")
        sys.exit(run([os.path.join(out, "e2ebench_tests")]))
    out = build("e2ebench")
    binary = os.path.join(out, "e2ebench")
    golden = os.path.join(HERE, "golden.json")
    if args.write_golden:
        sys.exit(run([binary, "--write-golden", golden,
                      "--seed", str(args.seed)]))
    if args.workload is None:
        fail("--workload is required")
    sys.exit(run([binary, "--workload", args.workload,
                  "--seed", str(args.seed),
                  "--seconds", str(args.seconds),
                  "--trace", str(args.trace),
                  "--golden", golden,
                  "--trace-out",
                  os.path.join(out, args.workload + ".trace.json")]))


if __name__ == "__main__":
    main()
