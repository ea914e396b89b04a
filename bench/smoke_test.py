"""Smoke test of the benchmark itself, at a tiny size.

    python3 bench/smoke_test.py

For every workload, including those BENCHMARK.json leaves out: an
untraced run prints every end-to-end metric of BENCHMARK.json with its
unit and checks every output; two traced runs
at one seed print every per-layer metric with its unit and give
identical counts, since counts are the only numbers here that repeat
exactly.  Stdlib only, so it runs under any python3 that runs the
benchmark.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(workloads.WORKLOADS)


def run(workload, trace, seconds, seed=0):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{cmd} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def assert_metrics(self, result, spec):
        self.assertTrue(result["correct"], result)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in spec})
        for value in result["metrics"].values():
            self.assertIsInstance(value["value"], (int, float))

    def test_end_to_end_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.assert_metrics(run(workload, 0, 1), SPEC["end_to_end"])

    def test_traced_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, second = (run(workload, 1, 0.5) for _ in range(2))
                self.assert_metrics(first, SPEC["per_layer"])
                counts = [
                    {k: v["value"] for k, v in r["metrics"].items() if v["unit"] == "count"}
                    for r in (first, second)
                ]
                self.assertEqual(counts[0], counts[1])


if __name__ == "__main__":
    unittest.main()
