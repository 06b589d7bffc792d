#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark.

    python3 metisbench/test_smoke.py        # from the repository root

Runs every workload of metisbench/workloads.json in smoke mode (a few
seconds each), untraced and traced, and checks that
  * the last line is the result object with exactly the contract's keys;
  * every end_to_end (untraced) or per_layer (traced) metric of
    BENCHMARK.json is emitted with its unit;
  * every correctness gate ran and passed, and no operation failed.
It also checks that the benchmark refuses to run (exit code != 0, no
result) in a directory holding only BENCHMARK.json and metisbench/.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_bench(workload, trace, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "metisbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=600)


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        with open(os.path.join(BENCH_DIR, "workloads.json")) as f:
            cls.workloads = json.load(f)["workloads"]

    def test_every_workload_emits_every_metric_and_passes_its_gates(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(self.workloads))
        for workload in self.workloads:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_bench(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    lines = proc.stdout.strip().splitlines()
                    result = json.loads(lines[-1])
                    record = json.loads(lines[-2])["record"]
                    self.assertEqual(sorted(result),
                                     ["attempted", "correct", "failed",
                                      "metrics"])
                    self.assertTrue(result["correct"], record)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    wanted = self.spec["per_layer" if trace else "end_to_end"]
                    self.assertEqual(sorted(result["metrics"]),
                                     sorted(m["name"] for m in wanted))
                    for m in wanted:
                        got = result["metrics"][m["name"]]
                        self.assertEqual(got["unit"], m["unit"], m["name"])
                        self.assertIsInstance(got["value"], (int, float))
                    gates = record["gates"]
                    for ran in ("decisions_checked", "trees_checked",
                                "rankings_checked", "stats_checked"):
                        self.assertGreater(gates[ran], 0, ran)
                    for miss in ("decision_mismatches", "tree_mismatches",
                                 "ranking_mismatches", "version_mismatches",
                                 "stats_mismatches"):
                        self.assertEqual(gates[miss], 0, miss)
                    self.assertTrue(gates["setup_decisions_ok"])

    def test_refuses_to_run_without_the_repository(self):
        bare = os.path.join(BENCH_DIR, ".work", "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "metisbench"),
                            ignore=shutil.ignore_patterns(".work", "out"))
            env = dict(os.environ,
                       CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
            proc = run_bench("decide", 0, cwd=bare, env=env)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
