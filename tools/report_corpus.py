"""Hash a seeded corpus of CLI reports in one or more checkouts, cell by cell.

    python3 tools/report_corpus.py --seed 0 --n 2100 --root PARENT --root CHANGE

Draws --n seeded argument lists for brauercalc's command line: every
command (ram, equal, distinguish, enumerate, witness, and witness
followed by verify-witness on the file it wrote), in text and JSON, over
the bases q (p = 2), fq:4 (p = 3), fq:7 (p = 2 and 3), fq:9 (p = 2),
fq:13 (p = 3) and fq:49 (p = 3), with integer coefficients and entries of
degree up to 8.  The second class of an equal or distinguish op is drawn
at random, or is the first plus p copies of one symbol, plus one more
symbol, or, so that distinguish reaches its specialization and fallback
steps, plus a constant symbol (u, v) for p = 2 (nontrivial only over Q)
and the first class doubled for p = 3 (the same support and residue
fields).  Op i runs command i mod 6 on setting (i div 6) mod 7, so
every (command, setting) cell gets the same share of the ops.  Each --root
is a checkout; its src/ runs every op through brauercalc.cli.main in one
child process, in a fresh temporary directory where witness files are
written under one fixed relative name, with bytecode cached outside the
checkout.

Prints one line per cell: the number of reports, their exit codes and
one digest per root over every report's argument lists, exit codes,
stdout and stderr.  With two or more roots, each cell where a root's
digest differs from the first root's is marked DIFF, and its first
differing report is printed in full for both roots.  Exits 1 when any
cell differs, 0 otherwise.  The draw depends on --seed and --n alone, so
a fixed seed is a fixed corpus.  Integer constants lie in the prime
subfield, so over fq:4 (p = 3) and fq:9 (p = 2) every witness constant is
a p-th power and those witness cells report exit 1.  Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from random import Random

COMMANDS = ("ram", "equal", "distinguish", "enumerate", "witness", "verify-witness")
# (base, p, characteristic or None over Q)
SETTINGS = (("q", 2, None), ("fq:4", 3, 2), ("fq:7", 2, 7), ("fq:7", 3, 7),
            ("fq:9", 2, 3), ("fq:13", 3, 13), ("fq:49", 3, 7))
DEGREES = (0, 1, 1, 2, 2, 3, 4, 6, 8)  # entry degrees, at most 8
HEIGHT = 9  # coefficients lie in [-HEIGHT, HEIGHT]
WITNESS_FILE = "witness.json"


def _coeff(rng, char, lead):
    """An integer coefficient; a leading one is nonzero in the field."""
    while True:
        c = rng.randint(-HEIGHT, HEIGHT)
        if not lead or (c % char if char else c):
            return c


def _poly_text(rng, degree, char):
    """Grammar text of an integer polynomial of exactly this degree in the field."""
    terms = []
    for i in range(degree, -1, -1):
        c = _coeff(rng, char, i == degree)
        if c == 0:
            continue
        mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        coef = str(abs(c)) if abs(c) != 1 or not mono else ""
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(f"{sign}{coef}{'*' if coef and mono else ''}{mono}")
    return "".join(terms)


def _rat_text(rng, char):
    num = _poly_text(rng, rng.choice(DEGREES), char)
    if rng.random() < 0.7:
        return num
    return f"{num}/{_poly_text(rng, rng.choice(DEGREES[1:]), char)}"


def _class_text(rng, char, symbols):
    return " + ".join(f"({_rat_text(rng, char)}, {_rat_text(rng, char)})"
                      for _ in range(rng.randint(1, symbols)))


def _witness_class(rng, char):
    """(a, u*t - u*c) with a constant a, maybe plus a random class, and c."""
    c = rng.randint(-HEIGHT, HEIGHT)
    a = _coeff(rng, char, True)
    u = _coeff(rng, char, True)
    sym = f"({a}, {_linear_text(u, c)})"
    if rng.random() < 0.5:
        sym = f"{sym} + {_class_text(rng, char, 1)}"
    return sym, str(c)


def _linear_text(u, c):
    """Text of u*t - u*c for integers u != 0 and c."""
    const = -u * c
    lead = {1: "t", -1: "-t"}.get(u, f"{u}*t")
    return lead if const == 0 else f"{lead}{'+' if const > 0 else '-'}{abs(const)}"


def _op(rng, command, base, p, char):
    """The argument lists of one op: one cli.main call, or two for
    verify-witness (the witness call that writes the file, then the check)."""
    flags = ["--base", base, "--p", str(p), "--format", rng.choice(("text", "json"))]
    if command == "ram":
        return [["ram", _class_text(rng, char, 3), *flags]]
    if command in ("equal", "distinguish"):
        a = _class_text(rng, char, 2)
        kind = rng.randrange(4)
        if kind == 0:
            b = _class_text(rng, char, 2)
        elif kind == 1:  # a plus p copies of one symbol: the same class
            b = " + ".join([a] + [_class_text(rng, char, 1)] * p)
        elif kind == 2:  # a with one more symbol
            b = f"{a} + {_class_text(rng, char, 1)}"
        elif p % 2:  # 2a: for odd p, a's support and residue fields
            b = f"{a} + {a}"
        else:  # a plus a constant class, which is trivial over F_q
            b = f"{a} + ({_coeff(rng, char, True)}, {_coeff(rng, char, True)})"
        extra = ["--sweep", "0"] if command == "distinguish" and rng.random() < 0.2 else []
        return [[command, a, b, *flags, *extra]]
    if command == "enumerate":
        return [["enumerate", _class_text(rng, char, 2), *flags]]
    cls, at = _witness_class(rng, char)
    witness = ["witness", cls, "--at", at, "--out", WITNESS_FILE, *flags]
    if command == "witness":
        return [witness]
    checked = cls if rng.random() < 0.7 else f"{cls} + {_class_text(rng, char, 1)}"
    return [witness, ["verify-witness", checked, WITNESS_FILE, *flags]]


def cell_name(command, base, p):
    return f"{command} {base} p={p}"


def draw(seed, n):
    """[(cell, argument lists)] for the first n ops of the seed's corpus."""
    rng = Random(f"brauercalc-report-corpus:{seed}")
    ops = []
    for i in range(n):
        command = COMMANDS[i % len(COMMANDS)]
        base, p, char = SETTINGS[i // len(COMMANDS) % len(SETTINGS)]
        ops.append((cell_name(command, base, p), _op(rng, command, base, p, char)))
    return ops


def _child():
    """Run the argument lists read from stdin through cli.main, in order;
    write [[exit code, stdout, stderr], ...] per op to stdout as JSON."""
    from brauercalc import cli

    results = []
    for argvs in json.load(sys.stdin):
        with contextlib.suppress(FileNotFoundError):  # no op reads another's file
            os.remove(WITNESS_FILE)
        runs = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            runs.append([code, out.getvalue(), err.getvalue()])
        results.append(runs)
    json.dump(results, sys.stdout)


def run_root(root, ops):
    """Every op's [[exit code, stdout, stderr], ...] from one child process
    importing the library from root/src."""
    src = str(Path(root).resolve() / "src")
    with tempfile.TemporaryDirectory() as work:
        env = {**os.environ, "PYTHONPATH": src,
               "PYTHONPYCACHEPREFIX": os.path.join(work, "pycache")}
        check = "import brauercalc, sys; sys.exit(not brauercalc.__file__.startswith(sys.argv[1]))"
        subprocess.run([sys.executable, "-c", check, src], cwd=work, env=env, check=True)
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--child"], cwd=work,
                              env=env, input=json.dumps([argvs for _, argvs in ops]),
                              capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"the child for {root} exited {proc.returncode}:\n"
                           + proc.stderr[-2000:])
    return json.loads(proc.stdout)


def digests(ops, results):
    """{cell: (reports, Counter of final exit codes, sha256 hex digest)}."""
    hashes, codes = {}, {}
    for (cell, argvs), runs in zip(ops, results):
        hashes.setdefault(cell, hashlib.sha256()).update(json.dumps([argvs, runs]).encode())
        codes.setdefault(cell, Counter())[runs[-1][0]] += 1
    return {cell: (codes[cell].total(), codes[cell], h.hexdigest()) for cell, h in hashes.items()}


def first_differences(ops, first, other):
    """{cell: (argument lists, first's runs, other's runs)} at the first
    report of each cell where the two roots' reports differ."""
    out = {}
    for (cell, argvs), a, b in zip(ops, first, other):
        if a != b and cell not in out:
            out[cell] = (argvs, a, b)
    return out


def _show_runs(label, runs):
    lines = []
    for code, stdout, stderr in runs:
        lines.append(f"    {label}: exit {code}")
        lines.extend(f"      | {line}" for line in (stdout + stderr).splitlines())
    return lines


def compare(ops, roots, results):
    """The report lines and the number of differing cells."""
    tables = [digests(ops, res) for res in results]
    diffs = [first_differences(ops, results[0], res) for res in results[1:]]
    lines, differing = [], 0
    for cell in dict.fromkeys(cell for cell, _ in ops):
        n, codes, digest = tables[0][cell]
        exits = ",".join(f"{code}:{k}" for code, k in sorted(codes.items(), key=str))
        marks = [t[cell][2][:16] for t in tables]
        bad = any(t[cell][2] != digest for t in tables[1:])
        differing += bad
        lines.append(f"{cell:32s} {n:5d} reports  exits {exits:14s} "
                     f"{' '.join(marks)}{'  DIFF' if bad else ''}")
        for root, diff in zip(roots[1:], diffs):
            if cell in diff:
                argvs, a, b = diff[cell]
                lines.append(f"  first difference, {roots[0]} vs {root}:")
                lines.extend(f"    $ brauercalc {' '.join(map(repr, argv))}" for argv in argvs)
                lines.extend(_show_runs(roots[0], a) + _show_runs(root, b))
    return lines, differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=420, help="number of ops (default 420)")
    parser.add_argument("--root", action="append", required=True,
                        help="a checkout whose src/ is run; repeat to compare")
    args = parser.parse_args(argv)
    ops = draw(args.seed, args.n)
    results = [run_root(root, ops) for root in args.root]
    lines, differing = compare(ops, args.root, results)
    reports = sum(len(argvs) for _, argvs in ops)
    cells = len(dict.fromkeys(cell for cell, _ in ops))
    print(f"seed {args.seed}: {args.n} ops, {reports} reports per root, {cells} cells")
    print("\n".join(lines))
    print(f"{differing} differing cells")
    return 1 if differing else 0


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        _child()
    else:
        sys.exit(main())
