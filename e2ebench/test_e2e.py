#!/usr/bin/env python3
"""The benchmark's own test.

    python3 e2ebench/test_e2e.py

Runs every workload at its smallest size (--smoke), untraced and traced,
and checks that it reports every metric BENCHMARK.json names with zero
failed operations. Then shows that each check can fail: a result with one
byte altered, a wrong expected count and (in corpus-roundtrip) a missing
document must each make the run report failed operations and
"correct": false.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "e2ebench", "run.py")
WORKLOADS = ("xmark-q1q20", "adhoc-lookups", "corpus-roundtrip")
# Faults the benchmark can inject into its own checks, per workload. Only
# corpus-roundtrip loads and drops documents, so only it can lose one.
FAULTS = {
    "xmark-q1q20": ("flip-byte", "wrong-count"),
    "adhoc-lookups": ("flip-byte", "wrong-count"),
    "corpus-roundtrip": ("flip-byte", "wrong-count", "missing-doc"),
}


def run(workload, trace=0, inject=None):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace), "--smoke"]
    if inject:
        command += ["--inject", inject]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited "
                             f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def check_result(self, result, metrics):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        for metric in metrics:
            self.assertIn(metric["name"], result["metrics"])
            self.assertEqual(result["metrics"][metric["name"]]["unit"],
                             metric["unit"])

    def test_workloads_are_the_benchmarks(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))

    def test_clean_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = run(workload)
                self.check_result(result, self.spec["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_result(run(workload, trace=1),
                                  self.spec["per_layer"])

    def test_each_check_can_fail(self):
        for workload in WORKLOADS:
            for fault in FAULTS[workload]:
                with self.subTest(workload=workload, fault=fault):
                    result = run(workload, inject=fault)
                    self.assertIs(result["correct"], False)
                    self.assertGreaterEqual(result["failed"], 1)
                    self.assertLessEqual(result["failed"],
                                         result["attempted"])


if __name__ == "__main__":
    unittest.main()
