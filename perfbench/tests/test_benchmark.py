"""Self-tests of the benchmark harness.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root (the harness is built on first use, like
run.py does). Every workload runs at tiny size, untraced and traced; each
must pass its ground-truth checks and emit every metric BENCHMARK.json
names, with the declared unit. Two injected defects, a dropped census
record and a wrong store answer, must be reported as failures.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
WORKLOADS = ("census", "lossy_fabric", "audit", "store_query")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny",
           *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(done):
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class HarnessTest(unittest.TestCase):

    def check_metrics(self, result, declared):
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertIsInstance(result["attempted"], int)
        self.assertGreaterEqual(result["attempted"], 1)
        names = {m["name"]: m for m in declared}
        self.assertEqual(set(result["metrics"]), set(names))
        for name, got in result["metrics"].items():
            self.assertEqual(got["unit"], names[name]["unit"], name)
            self.assertIn(names[name]["better"], ("higher", "lower"), name)
            self.assertIsInstance(got["value"], (int, float), name)

    def test_untraced_runs_pass_and_emit_end_to_end_metrics(self):
        declared = spec()["end_to_end"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run(workload, 0)
                self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
                result = result_of(done)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, declared)
                for m in declared:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)
                self.assertIn("provenance", done.stdout)

    def test_traced_runs_pass_and_write_a_chrome_trace(self):
        declared = spec()["per_layer"]
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                done = run(workload, 1)
                self.assertEqual(done.returncode, 0, done.stdout + done.stderr)
                result = result_of(done)
                self.assertTrue(result["correct"])
                self.check_metrics(result, declared)
                path = next(line.split(": ", 1)[1]
                            for line in done.stdout.splitlines()
                            if line.startswith("trace file: "))
                with open(path) as f:
                    trace = json.load(f)
                events = trace["traceEvents"]
                self.assertTrue(events)
                for e in events:
                    self.assertEqual(e["ph"], "X")
                    self.assertGreaterEqual(e["dur"], 0)
                    self.assertIn("parent", e["args"])
                    self.assertIn("run", e["args"])

    def test_dropped_record_is_reported(self):
        done = run("census", 0, "--inject", "drop_record")
        self.assertNotEqual(done.returncode, 0)
        result = result_of(done)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("CHECK FAILED: census", done.stdout)

    def test_wrong_store_answer_is_reported(self):
        done = run("store_query", 0, "--inject", "wrong_answer")
        self.assertNotEqual(done.returncode, 0)
        result = result_of(done)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertIn("CHECK FAILED: store_query", done.stdout)

    def test_benchmark_alone_fails_without_a_result(self):
        build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        alone = os.path.join(ROOT, build, "selftest_alone")
        shutil.rmtree(alone, ignore_errors=True)
        os.makedirs(alone)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), alone)
        shutil.copytree(BENCH, os.path.join(alone, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        try:
            cmd = [sys.executable, "perfbench/run.py", "--workload",
                   "census", "--seed", "1", "--seconds", "1", "--trace", "0"]
            env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
            done = subprocess.run(cmd, cwd=alone, env=env,
                                  capture_output=True, text=True, timeout=180)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
