#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at tiny sizes.

Runs every workload untraced and traced through run.py and checks that every
metric BENCHMARK.json names is printed with its unit, that every correctness
check passes with no failed operation, and that the traced run prints the
per-layer map and the untraced-vs-traced comparison. Also checks that run.py
fails without a result when the source tree is missing.

    python3 perfbench/smoke_test.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)


def run(workload, trace, cwd=ROOT, run_py=RUN):
    return subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class SmokeTest(unittest.TestCase):
    def check_result(self, proc, wanted):
        self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
        return result

    def test_workloads(self):
        for w in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=w):
                self.check_result(run(w, 0), SPEC["end_to_end"])
                traced = run(w, 1)
                self.check_result(traced, SPEC["per_layer"])
                out = traced.stdout
                for m in SPEC["per_layer"]:
                    line = next((l for l in out.splitlines()
                                 if l.split()[1:2] == [m["name"]]), "")
                    self.assertIn("->", line, m["name"])
                    self.assertNotIn("-> ?", line, m["name"])
                for m in SPEC["end_to_end"]:
                    self.assertRegex(out, rf"{m['name']} +untraced +[0-9.e+-]+ "
                                          r"+traced")

    def test_fails_without_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run("trickle_commit", 0, cwd=bare,
                       run_py=os.path.join(bare, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
