"""Traced benchmark runs, so that a lost library name fails the suite.

bench/tracer.py wraps library functions and reads library caches by
name; a refactor that deletes or renames one of them breaks a traced
run.  Each run replays a handful of operations and takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["cli_mix", "q_split_distinguish"])
def test_traced_bench_run(workload):
    cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
           "--trace", "1", "--seconds", "0.5"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout[-2000:]
