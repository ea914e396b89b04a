"""tools/op_profile.py on a handful of cli_mix ops: every command shows up
as an op kind, named with its base (q or fq), the kind shares add up to
the whole, and the library
modules are named in the self-time table; with --kind the table is that
kind's alone, and an unknown kind is refused; --functions N lists N
functions as file:line name, from the largest self-time share down;
--caches lists every lru_cache of the library with its counts; --setup
profiles the set-up, a fresh import and the ops' generation, instead."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def op_profile(*args):
    cmd = [sys.executable, str(ROOT / "tools" / "op_profile.py"), "--workload", "cli_mix",
           "--ops", "7", *args]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)


def tables(proc, label):
    """The kind rows and the module names under the self-time header."""
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("cli_mix seed 0: 7 ops in ")
    header = lines.index(f"self time by module (cProfile, {label}):")
    kinds = lines[lines.index("op time by kind:") + 1:header]
    rows = [re.fullmatch(r"  (\S+ \S+) +(\d+) ops +([\d.]+) %", row).groups() for row in kinds]
    assert [kind for kind, _, _ in rows] == [
        "ram q", "ram fq", "equal q", "distinguish q", "enumerate fq", "witness q", "verify q"
    ]
    assert sum(int(n) for _, n, _ in rows) == 7
    assert abs(sum(float(share) for _, _, share in rows) - 100) < 0.5
    end = next((i for i, row in enumerate(lines) if row.startswith("self time by function")),
               len(lines))
    return rows, {row.split()[0] for row in lines[header + 1:end]}


def test_op_profile_smoke():
    _, modules = tables(op_profile(), "7 ops")
    assert {"poly", "parser"} <= modules


def test_op_profile_limits_the_profile_to_one_kind():
    """The timed table still lists every kind; the profiled one is the one
    equal op's, which never reaches the cover code, or the one F_q ram op's,
    which computes in F_q; a command without its base names no kind."""
    _, modules = tables(op_profile("--kind", "equal q"), "1 equal q ops")
    assert {"poly", "parser", "brauer"} <= modules
    assert "covers" not in modules
    _, modules = tables(op_profile("--kind", "ram fq"), "1 ram fq ops")
    assert {"poly", "parser", "fields"} <= modules
    assert "covers" not in modules
    for kind in ("mode 0", "ram"):
        proc = op_profile("--kind", kind)
        assert proc.returncode == 2
        assert f"no '{kind}' op among the first 7 ops" in proc.stderr


def test_op_profile_lists_the_functions_with_the_most_self_time():
    proc = op_profile("--functions", "40")
    _, modules = tables(proc, "7 ops")
    assert {"poly", "parser"} <= modules
    lines = proc.stdout.splitlines()
    start = lines.index("self time by function (cProfile, 7 ops):")
    rows = [re.fullmatch(r"  +([\d.]+) %  (.+?):(\d+) (.+)", row).groups()
            for row in lines[start + 1:]]
    assert len(rows) == 40
    shares = [float(share) for share, _, _, _ in rows]
    assert shares == sorted(shares, reverse=True) and sum(shares) <= 100.5
    assert {"poly.py", "parser.py"} & {path for _, path, _, _ in rows}
    assert "self time by function" not in op_profile().stdout


def test_op_profile_lists_every_lru_cache_after_the_plain_replay():
    """One row per lru_cache defined in the library, module-level functions
    and class attributes alike, with hits, misses and a size no larger
    than the misses; the table is printed only with --caches."""
    proc = op_profile("--caches")
    tables(proc, "7 ops")
    lines = proc.stdout.splitlines()
    start = lines.index("lru caches after the plain replay:")
    rows = {}
    for row in lines[start + 1:]:
        name, hits, misses, size = re.fullmatch(
            r"  (\S+) +(\d+) hits +(\d+) misses +(\d+) size", row).groups()
        rows[name] = int(hits), int(misses), int(size)
    assert {"hilbert._pair_places", "fields.factor_int", "factoring._factor_q_monic",
            "points._point", "poly.Poly.monic_from_ints", "cli._parser"} <= set(rows)
    assert all(size <= misses for _, misses, size in rows.values())
    assert rows["fields.factor_int"][0] > 0 and rows["cli._parser"][1] == 1
    assert "lru caches" not in op_profile().stdout


def test_op_profile_setup_profiles_the_import_and_the_generation():
    """With --setup the first line gives the import and the generation in
    ms, the tables are the set-up's, with the library's own modules and the
    workload generator in them, and --kind is refused."""
    cmd = [sys.executable, str(ROOT / "tools" / "op_profile.py"), "--workload",
           "q_split_distinguish", "--ops", "12", "--setup", "--functions", "10"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    head = re.fullmatch(r"q_split_distinguish seed 0: set-up of 12 ops, import ([\d.]+) ms, "
                        r"generation ([\d.]+) ms \(fastest of \d+\), python .*", lines[0])
    assert head and all(float(ms) > 0 for ms in head.groups())
    header = lines.index("self time by module (cProfile, set-up):")
    end = lines.index("self time by function (cProfile, set-up):")
    modules = {row.split()[0] for row in lines[header + 1:end]}
    assert {"poly", "workloads.py"} <= modules
    assert len(lines) - end - 1 == 10 and "op time by kind:" not in lines
    proc = subprocess.run(cmd + ["--kind", "mode 0"], cwd=ROOT, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 2 and "--setup profiles no op" in proc.stderr
