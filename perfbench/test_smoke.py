#!/usr/bin/env python3
"""Tiny-scale smoke test of every benchmark workload in both trace modes.

    python3 perfbench/test_smoke.py

Each case runs perfbench/run.py --scale tiny and asserts that the run
passes its output checks and prints every metric BENCHMARK.json names
for that mode, each with its unit and a finite value.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "5", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    return proc


class SmokeTest(unittest.TestCase):
    def check(self, workload, trace):
        proc = run(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = spec()["per_layer" if trace else "end_to_end"]
        self.assertEqual(len(result["metrics"]), len(metrics))
        for metric in metrics:
            printed = result["metrics"].get(metric["name"])
            self.assertIsNotNone(printed, metric["name"])
            self.assertEqual(printed["unit"], metric["unit"], metric["name"])
            self.assertTrue(math.isfinite(printed["value"]), metric["name"])
            if trace == 0:
                self.assertNotEqual(printed["value"], 0, metric["name"])


def add_cases():
    for workload in [w["name"] for w in spec()["workloads"]]:
        for trace in (0, 1):
            name = f"test_{workload.replace('-', '_')}_trace{trace}"
            setattr(SmokeTest, name,
                    lambda self, w=workload, t=trace: self.check(w, t))


add_cases()

if __name__ == "__main__":
    unittest.main()
