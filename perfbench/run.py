#!/usr/bin/env python3
"""End-to-end benchmark entry point for PatchDB.

Run from the repository root:

    python3 perfbench/run.py --workload build-link --seed 1 --seconds 30 --trace 0

Builds the library from ../src together with the perfbench binary
(perfbench/CMakeLists.txt, Release) under $CARGO_TARGET_DIR or
.bench_build, runs the binary, checks that its result line carries
exactly the metrics BENCHMARK.json names for the chosen trace mode, and
prints that line last. Exits non-zero without a result line when the
build fails, and non-zero with a `"correct": false` line when an output
check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("build-link", "serve-mix")
BUILD_TIMEOUT_S = 700  # a cold checkout compiles the library first
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench/run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(out_dir):
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=max(1, deadline - time.monotonic()))
        if result.returncode != 0:
            log(f"build step failed ({result.returncode}): {' '.join(step)}")
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                         f"unexpected {extra}, wrong unit {wrong}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="tiny: seconds-long smoke scale (tests only)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out_dir = build_dir()
    try:
        if not build(out_dir):
            return 2
    except subprocess.TimeoutExpired:
        log("build exceeded its deadline")
        return 2

    command = [os.path.join(out_dir, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale, "--work-dir", os.path.join(out_dir, "work")]
    try:
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("benchmark run exceeded its deadline and was killed")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"benchmark printed no result (exit {proc.returncode})")
        return proc.returncode or 4
    try:
        result = check_result(lines[-1], args.trace)
    except (ValueError, KeyError, TypeError) as e:
        log(f"malformed result line: {e}")
        return 5
    print(json.dumps(result), flush=True)
    if proc.returncode == 0 and not result["correct"]:
        return 6
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
