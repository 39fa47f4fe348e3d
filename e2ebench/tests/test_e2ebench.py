#!/usr/bin/env python3
"""Self test of the end-to-end benchmark at toy size.

Run from the repository root:

    python3 e2ebench/tests/test_e2ebench.py

Every workload runs in seconds (--scale toy). The test checks that each
run prints every metric BENCHMARK.json names, with its unit; that each
correctness gate fails the run (exit 3, no result) on a tampered input;
that the guards refuse what they must (exit 2); and that the benchmark
fails cleanly in a directory holding only BENCHMARK.json and its own files.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BUILD = os.path.abspath(os.path.join(
    ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build"))

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def bench(*args, cwd=ROOT, env=None):
    """Runs the benchmark command at toy scale; returns (code, stdout)."""
    argv = SPEC["command"] + ["--seed", "7", "--seconds", "1",
                              "--scale", "toy"] + list(args)
    proc = subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout


def result(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


class BenchmarkJsonTest(unittest.TestCase):

    def test_contract(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(SPEC["workloads"]) <= 8)
        for metric in SPEC["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]), ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in SPEC["end_to_end"]))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))


class WorkloadTest(unittest.TestCase):

    def check_metrics(self, stdout, declared, nonzero):
        out = result(stdout)
        self.assertEqual(set(out), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertIs(out["correct"], True)
        self.assertGreaterEqual(out["attempted"], 1)
        self.assertEqual(out["failed"], 0)
        self.assertEqual({n: out["metrics"][n]["unit"]
                          for n in out["metrics"]},
                         {m["name"]: m["unit"] for m in declared})
        for name, metric in out["metrics"].items():
            self.assertTrue(math.isfinite(metric["value"]), name)
            if nonzero:
                self.assertNotEqual(metric["value"], 0, name)

    def test_every_workload_emits_every_metric(self):
        for workload in SPEC["workloads"]:
            with self.subTest(workload=workload["name"]):
                code, stdout = bench("--workload", workload["name"],
                                     "--trace", "0")
                self.assertEqual(code, 0)
                self.check_metrics(stdout, SPEC["end_to_end"], nonzero=True)
                code, stdout = bench("--workload", workload["name"],
                                     "--trace", "1")
                self.assertEqual(code, 0)
                self.check_metrics(stdout, SPEC["per_layer"], nonzero=False)


class GateTest(unittest.TestCase):

    def assert_gate_fires(self, *args):
        code, stdout = bench(*args)
        self.assertEqual(code, 3)
        self.assertNotIn('"correct"', stdout)

    def test_spread_gate(self):
        self.assert_gate_fires("--workload", "tim-ic-dense", "--trace", "0",
                               "--tamper", "spread")

    def test_replay_gate(self):
        self.assert_gate_fires("--workload", "imm-lt", "--trace", "1",
                               "--tamper", "replay")
        self.assert_gate_fires("--workload", "tim-ic-dense", "--trace", "1",
                               "--tamper", "replay")

    def test_spill_gate(self):
        self.assert_gate_fires("--workload", "tim-ic-spill", "--trace", "0",
                               "--tamper", "spill")

    def test_serve_gate(self):
        self.assert_gate_fires("--workload", "serve-mix", "--trace", "0",
                               "--tamper", "serve")


class GuardTest(unittest.TestCase):

    def test_refuses_more_threads_than_nproc(self):
        code, stdout = bench("--workload", "imm-lt", "--trace", "0",
                             "--threads", str((os.cpu_count() or 1) + 1))
        self.assertEqual(code, 2)
        self.assertNotIn('"correct"', stdout)

    def test_fails_without_the_library(self):
        # Only BENCHMARK.json and the benchmark's own files: the build must
        # fail and the run must exit non-zero without a result.
        lonely = os.path.join(BUILD, "selftest-lonely")
        shutil.rmtree(lonely, ignore_errors=True)
        os.makedirs(lonely)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
        for path in SPEC["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(lonely, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(lonely, "build"))
        try:
            code, stdout = bench("--workload", "imm-lt", "--trace", "0",
                                 cwd=lonely, env=env)
        finally:
            shutil.rmtree(lonely, ignore_errors=True)
        self.assertNotEqual(code, 0)
        self.assertNotIn('"correct"', stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
