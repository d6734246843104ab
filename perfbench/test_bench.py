#!/usr/bin/env python3
"""The benchmark's own test.

* Smoke: every workload at tiny scale, untraced and traced, prints the
  metrics BENCHMARK.json names with their units, error_rate 0, and a
  traced run whose layer spans cover its wall time.
* A wrong expected digest is reported as a failed cell, not a crash.
* Without the simulator's sources the benchmark exits non-zero and
  prints no result.

Run from the repository root: python3 perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def run(*args, cwd=ROOT):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=850,
    )
    return done.returncode, done.stdout.strip().splitlines(), done.stderr


def tiny(workload, trace, *extra):
    return run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny", *extra)


class Benchmark(unittest.TestCase):
    def test_every_workload_at_tiny_scale(self):
        for workload in SPEC["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload["name"], trace=trace):
                    code, lines, err = tiny(workload["name"], trace)
                    self.assertEqual(code, 0, err)
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 0)
                    self.assertIn("error_rate 0.000000 fraction", "\n".join(lines))
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in SPEC[kind]})
                    if trace:
                        coverage = result["metrics"]["span_coverage"]["value"]
                        self.assertGreater(coverage, 0.95)

    def test_wrong_digest_is_a_failed_cell(self):
        expected = json.loads(bench.EXPECTED.read_text())
        expected["tiny"]["fig6"]["radix/scoma"]["digest"] = "0" * 16
        bench.target_dir().mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.target_dir()) as tmp:
            path = Path(tmp) / "expected.json"
            path.write_text(json.dumps(expected))
            code, lines, err = tiny("fig6-paper", 0, "--expected", str(path))
        self.assertEqual(code, 0, err)
        result = json.loads(lines[-1])
        self.assertFalse(result["correct"])
        # One mismatch per regeneration of the 40-cell grid.
        self.assertGreater(result["failed"], 0)
        self.assertEqual(result["failed"] * 40, result["attempted"])

    def test_fails_cleanly_without_the_sources(self):
        bench.target_dir().mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.target_dir()) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("target", "__pycache__"))
            code, lines, _ = run("--workload", "fig6-paper", "--seed", "0",
                                 "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(code, 0)
        self.assertFalse(any(line.startswith("{") for line in lines))


if __name__ == "__main__":
    unittest.main()
