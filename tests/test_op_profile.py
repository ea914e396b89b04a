"""tools/op_profile.py on a handful of cli_mix ops: every command shows up
as an op kind, the kind shares add up to the whole, and the library
modules are named in the self-time table."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_op_profile_smoke():
    cmd = [sys.executable, str(ROOT / "tools" / "op_profile.py"), "--workload", "cli_mix",
           "--ops", "7"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("cli_mix seed 0: 7 ops in ")
    header = lines.index("self time by module (cProfile, 7 ops):")
    kinds = lines[lines.index("op time by kind:") + 1:header]
    rows = [re.fullmatch(r"  (\S+) +(\d+) ops +([\d.]+) %", row).groups() for row in kinds]
    assert [kind for kind, _, _ in rows] == [
        "ram", "equal", "distinguish", "enumerate", "witness", "verify"
    ]
    assert sum(int(n) for _, n, _ in rows) == 7
    assert abs(sum(float(share) for _, _, share in rows) - 100) < 0.5
    modules = {row.split()[0] for row in lines[header + 1:]}
    assert {"poly", "parser"} <= modules
