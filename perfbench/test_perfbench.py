#!/usr/bin/env python3
"""The benchmark's own tests. Run from the root of a checkout:

  python3 perfbench/test_perfbench.py

Checks that BENCHMARK.json keeps the benchmark's contract (keys, name and
unit alphabets, bounds, the set-up metric), that --smoke passes every
output check with every metric reported, that a result line has the
required shape, and that run.py refuses to run without the sources.
"""
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

ROOT = os.getcwd()
RUN = [sys.executable, os.path.join("perfbench", "run.py")]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


class BenchmarkJson(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            self.spec = json.load(handle)

    def test_keys_and_limits(self):
        self.assertEqual(set(self.spec), {"command", "paths", "run_seconds",
                                          "workloads", "end_to_end", "per_layer"})
        self.assertEqual(self.spec["paths"], ["perfbench"])
        self.assertIsInstance(self.spec["run_seconds"], int)
        self.assertTrue(1 <= self.spec["run_seconds"] <= 60)
        self.assertTrue(2 <= len(self.spec["workloads"]) <= 8)
        names = []
        for workload in self.spec["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])
            names.append(workload["name"])
        for metric in self.spec["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertTrue(0 < metric["bound"] <= 0.25)
            names.append(metric["name"])
        for metric in self.spec["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
            names.append(metric["name"])
        for metric in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)))
        setup = [m for m in self.spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in self.spec["end_to_end"]))


class Runs(unittest.TestCase):
    def test_smoke(self):
        done = subprocess.run(RUN + ["--smoke"], capture_output=True, text=True,
                              cwd=ROOT, timeout=900)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
        self.assertEqual(done.stdout.count(": ok,"), 6, done.stdout)

    def test_result_line(self):
        done = subprocess.run(
            RUN + ["--workload", "preset-sweep", "--seed", "3", "--seconds", "1",
                   "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        self.assertEqual(done.returncode, 0, done.stderr)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            spec = json.load(handle)
        for metric in spec["end_to_end"]:
            value = result["metrics"][metric["name"]]
            self.assertEqual(value["unit"], metric["unit"])
            self.assertGreater(value["value"], 0)

    def test_refuses_without_sources(self):
        bare = os.path.join(build_dir(), "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        done = subprocess.run(
            RUN + ["--workload", "preset-sweep", "--seed", "1", "--seconds", "1",
                   "--trace", "0"],
            capture_output=True, text=True, cwd=bare, env=env, timeout=170)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("correct", done.stdout)


if __name__ == "__main__":
    unittest.main()
