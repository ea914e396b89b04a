"""Expression grammar round trips and the command-line surface.

The printer is the inverse of the parser on its own output; that
property is exercised on generated classes over each supported base.
CLI tests call main() in-process and assert on exit codes and on
byte-identical reruns; one subprocess test covers the module entry
point end to end.
"""

import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from brauercalc.brauer import BrauerClass
from brauercalc import cli, covers, factoring, fields
from brauercalc.cli import main
from brauercalc.covers import make_unramified_cover
from brauercalc.errors import ParseError, ScopeError
from brauercalc.fields import GF, multiplicative_generator
from brauercalc.parser import (
    MAX_ENTRY_DEGREE,
    _stray,
    _tokens,
    class_text,
    parse_class,
    parse_ratfunc,
    ratfunc_text,
)
from brauercalc.report import json_text, witness_to_obj
from brauercalc.points import ClosedPoint, FiniteBase, Q_BASE
from brauercalc.poly import Poly, QQ, RationalFunction

from _gen import F7, random_class
from _oracles import PolyArithmeticParser, _tokenize
from test_factoring import SD32


def q_poly(*coeffs):
    return Poly.from_ints(QQ, list(coeffs))


def test_single_slash_splits_whole_rat():
    r = parse_ratfunc("t+2/2", QQ)
    assert r == RationalFunction(q_poly(2, 1), q_poly(2))
    r = parse_ratfunc("t^3-2/t-1", QQ)
    assert r == RationalFunction(q_poly(-2, 0, 0, 1), q_poly(-1, 1))


def test_fractions_print_through_division():
    r = RationalFunction(Poly(QQ, [Fraction(0), Fraction(-1, 5)]))
    assert ratfunc_text(r) == "-t/5"
    assert parse_ratfunc("-t/5", QQ) == r


def test_roundtrip_random_classes():
    rng = random.Random(301)
    for base, p in ((Q_BASE, 2), (F7, 2), (F7, 3), (FiniteBase(49), 2)):
        for _ in range(25):
            # the grammar has literals only for constants of the prime subfield
            c = random_class(rng, base, p, 3, 3, height=30, prime_subfield=True)
            text = class_text(c)
            parsed = parse_class(text, base, p)
            assert parsed.pairs() == c.pairs(), text
            assert class_text(parsed) == text


def test_parse_offsets():
    with pytest.raises(ParseError) as err:
        parse_class("(t,", Q_BASE, 2)
    assert err.value.offset == 3
    with pytest.raises(ParseError):
        parse_class("(t, 1) + ", Q_BASE, 2)
    with pytest.raises(ParseError):
        parse_class("(t 1)", Q_BASE, 2)


def test_zero_entries_rejected():
    with pytest.raises(ParseError):
        parse_class("(0, t)", Q_BASE, 2)
    with pytest.raises(ParseError):
        parse_class("(t, t/0)", Q_BASE, 2)
    # but a zero value is a legal bare rational function
    assert parse_ratfunc("0", QQ).is_zero


def test_zero_class_forms():
    for text in ("", "0"):
        cls = parse_class(text, Q_BASE, 2)
        assert cls.symbols == ()
        assert class_text(cls) == "0"


def test_canonical_spacing():
    cls = parse_class("( 5 ,t )+(t,-1)", Q_BASE, 2)
    assert class_text(cls) == "(5, t) + (t, -1)"


def test_nonprime_coefficients_fall_back_to_display():
    f49 = GF(49)
    gen = multiplicative_generator(f49)
    r = RationalFunction.constant(f49, gen)
    text = ratfunc_text(r)
    assert "[" in text
    with pytest.raises(ParseError):
        parse_ratfunc(text, f49)
    f9 = FiniteBase(9)
    u, t9 = f9.field.gen_elem(), Poly.from_ints(f9.field, [0, 1])
    cls = BrauerClass.make(f9, 2, [(RationalFunction(t9 * u, t9 + 1), t9)])
    assert class_text(cls) == "(([0,1]*t)/(t + 1), t)"


def test_cli_exit_codes(capsys):
    assert main(["ram", "(5,t)"]) == 0
    assert main(["ram", "(t,"]) == 2
    assert main(["enumerate", "(5,t)"]) == 3
    assert main(["ram", "(5,t)", "--base", "fq:7", "--p", "5"]) == 3
    assert main(["witness", "(4,t)", "--at", "0"]) == 1
    assert main(["ram", "(5,t)", "--base", "fq:6"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()


_WITNESS = {"kind": "splitting", "m": 2, "g": "-t/3", "basepoint": "0", "fiber_root": "0"}


@pytest.mark.parametrize(
    "argv, witness, code, shown",
    [
        (["verify-witness", "(3, t)"], {**_WITNESS, "m": 3}, 1,
         ["witness degree m = 3 does not match --p 2"]),
        (["verify-witness", "(3, t)"], {**_WITNESS, "kind": "bogus"}, 1,
         ["unknown witness kind 'bogus'"]),
        (["verify-witness", "(3, t)"], [], 2, ["offset 0: witness file must hold a JSON object"]),
        (["verify-witness", "(3, t)"], {k: v for k, v in _WITNESS.items() if k != "g"}, 2,
         ["witness file is missing the 'g' field"]),
        (["verify-witness", "(3, t)"], {**_WITNESS, "g": "t )"}, 2, ["offset 2: unexpected ')'"]),
        (["ram", "0 + (t, 3)"], None, 2, ["offset 2: nothing may follow the zero class"]),
        (["ram", "(t, 3) (t, 5)"], None, 2, ["offset 7: unexpected '('"]),
        (["witness", "(3, t)", "--at", "t"], None, 1, ["--at must be a constant"]),
        (["ram", "(t, 3)", "--base", "x"], None, 1, ["unknown base 'x'"]),
        # the text report prints None as ~
        (["distinguish", "(2, t)", "(2, t)"], None, 0, ["\n  point: ~\n", "\n  certificate: ~\n"]),
        (["witness", "(3, t)", "--at", "0"], None, 0, ["\n  written_to: ~\n"]),
        # int() reads U+0663 as 3: a scanner taking \d for digits would read (3, t)
        (["ram", "(\u0663, t)"], None, 2, ["parse error: offset 1: unexpected character '\u0663'\n"]),
        (["ram", "(t\u00b2,3)"], None, 2, ["parse error: offset 2: unexpected character '\u00b2'\n"]),
    ],
)
def test_input_checks_end_with_their_exit_codes(tmp_path, capsys, argv, witness, code, shown):
    if witness is not None:
        path = tmp_path / "w.json"
        path.write_text(json.dumps(witness))
        argv = argv + [str(path)]
    assert main(argv) == code
    out, err = capsys.readouterr()
    for text in shown:
        assert text in (err if code else out), (text, out, err)


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["ram", "(t, ", "--base", "fq:7", "--p", "5"], 2,
         "parse error: offset 4: expected a number or t"),
        (["ram", "(t, 0)", "--base", "fq:7", "--p", "5"], 2,
         "parse error: offset 4: zero entry in symbol"),
        (["ram", "(t^40, 2)", "--p", "3"], 3,
         "out of scope: offset 3: degree 40 is above the supported entry degree 32"),
        (["ram", "(t, 2)", "--p", "3"], 3,
         "out of scope: over Q only 2-torsion classes are supported (requested p=3)"),
    ],
)
def test_the_text_is_read_before_the_torsion_is_checked(capsys, argv, code, line):
    """A parse error, or the scope error of a degree read in the text, wins
    over the torsion's scope error: p = 5 does not divide 7 - 1, and over Q
    only p = 2 is supported.  A text read without error gets the torsion's."""
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", line + "\n")


def test_cli_rejects_negative_sweep(capsys):
    argv = ["distinguish", "(2,t)", "(2,t)+(-1,-1)", "--sweep", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "nonnegative" in captured.err and "sweep: -1" not in captured.out


def test_sweep_is_a_distinguish_option_only(capsys):
    assert main(["ram", "(5,t)", "--sweep", "7"]) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == "brauercalc: error: unrecognized arguments: --sweep 7"
    assert main(["distinguish", "(2,t)", "(3,t)", "--sweep", "7"]) == 0
    assert "sweep: 7" in capsys.readouterr().out


# (argv, exit code, stdout, stderr) of the command line's usage surface,
# recorded byte for byte at an 80-column terminal
USAGE_TABLE = [
    ([], 1,
     "",
     ('usage: brauercalc [-h]\n'
      '                  {ram,equal,distinguish,enumerate,witness,verify-witness} ...\n'
      'brauercalc: error: the following arguments are required: command\n'
     ),
    ),
    (['bogus'], 1,
     "",
     ('usage: brauercalc [-h]\n'
      '                  {ram,equal,distinguish,enumerate,witness,verify-witness} ...\n'
      "brauercalc: error: argument command: invalid choice: 'bogus' (choose from 'ram', "
      "'equal', 'distinguish', 'enumerate', 'witness', 'verify-witness')\n"
     ),
    ),
    (['-h'], 0,
     ('usage: brauercalc [-h]\n'
      '                  {ram,equal,distinguish,enumerate,witness,verify-witness} ...\n'
      '\n'
      'Residue calculus for p-torsion Brauer classes over k(t).\n'
      '\n'
      'positional arguments:\n'
      '  {ram,equal,distinguish,enumerate,witness,verify-witness}\n'
      '    ram                 ramification divisor and reciprocity status\n'
      '    equal               exact equality with a certificate\n'
      '    distinguish         layered inequivalence verdict\n'
      '    enumerate           residue-compatible candidate classes (finite base\n'
      '                        only)\n'
      '    witness             splitting-cover datum for the residue at a rational\n'
      '                        point\n'
      '    verify-witness      re-check a stored witness datum\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'
     ),
     "",
    ),
    (['ram'], 1,
     "",
     ('usage: brauercalc ram [-h] [--base BASE] [--p P] [--format {text,json}]\n'
      '                      [--seed SEED]\n'
      '                      CLASS\n'
      'brauercalc ram: error: the following arguments are required: CLASS\n'
     ),
    ),
    (['ram', '-h'], 0,
     ('usage: brauercalc ram [-h] [--base BASE] [--p P] [--format {text,json}]\n'
      '                      [--seed SEED]\n'
      '                      CLASS\n'
      '\n'
      'positional arguments:\n'
      '  CLASS\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'
      '  --base BASE           q for the rationals (default), fq:<q> for the finite\n'
      '                        field of order q\n'
      '  --p P                 prime torsion (default 2)\n'
      '  --format {text,json}  output format\n'
      '  --seed SEED           recorded in the report; all computations here are\n'
      '                        deterministic\n'
     ),
     "",
    ),
    (['ram', '(5,t)', '--bogus'], 1,
     "",
     ('usage: brauercalc [-h]\n'
      '                  {ram,equal,distinguish,enumerate,witness,verify-witness} ...\n'
      'brauercalc: error: unrecognized arguments: --bogus\n'
     ),
    ),
    (['ram', '(5,t)', '(3,t)'], 1,
     "",
     ('usage: brauercalc [-h]\n'
      '                  {ram,equal,distinguish,enumerate,witness,verify-witness} ...\n'
      'brauercalc: error: unrecognized arguments: (3,t)\n'
     ),
    ),
    (['ram', '(5,t)', '--p', 'two'], 1,
     "",
     ('usage: brauercalc ram [-h] [--base BASE] [--p P] [--format {text,json}]\n'
      '                      [--seed SEED]\n'
      '                      CLASS\n'
      "brauercalc ram: error: argument --p: invalid int value: 'two'\n"
     ),
    ),
    (['equal', '(5,t)'], 1,
     "",
     ('usage: brauercalc equal [-h] [--base BASE] [--p P] [--format {text,json}]\n'
      '                        [--seed SEED]\n'
      '                        CLASS_A CLASS_B\n'
      'brauercalc equal: error: the following arguments are required: CLASS_B\n'
     ),
    ),
    (['--base', 'q', 'ram', '(5,t)'], 1,
     "",
     ('usage: brauercalc [-h]\n'
      '                  {ram,equal,distinguish,enumerate,witness,verify-witness} ...\n'
      "brauercalc: error: argument command: invalid choice: 'q' (choose from 'ram', "
      "'equal', 'distinguish', 'enumerate', 'witness', 'verify-witness')\n"
     ),
    ),
    (['ram', '--', '(5,t)'], 0,
     ('brauercalc 0.1.0: ram\n'
      'inputs:\n'
      '  base: q\n'
      '  class: (5, t)\n'
      '  p: 2\n'
      '  seed: 0\n'
      'outcome:\n'
      '  divisor:\n'
      '    -\n'
      '      degree: 1\n'
      '      point: t\n'
      '      residue: 5\n'
      '      residue_field: Q(sqrt(5))\n'
      '    -\n'
      '      degree: 1\n'
      '      point: inf\n'
      '      residue: 5\n'
      '      residue_field: Q(sqrt(5))\n'
      '  ramification_points: 2\n'
      '  reciprocity: True\n'
     ),
     "",
    ),
    (['distinguish', '(2,t)', '(3,t)', '--sweep', 'x'], 1,
     "",
     ('usage: brauercalc distinguish [-h] [--base BASE] [--p P]\n'
      '                              [--format {text,json}] [--seed SEED]\n'
      '                              [--sweep SWEEP]\n'
      '                              CLASS_A CLASS_B\n'
      "brauercalc distinguish: error: argument --sweep: invalid int value: 'x'\n"
     ),
    ),
]


@pytest.mark.parametrize("argv, code, out, err", USAGE_TABLE,
                         ids=[" ".join(row[0]) or "no-args" for row in USAGE_TABLE])
def test_usage_surface_is_byte_identical(argv, code, out, err, capsys, monkeypatch):
    """A command's arguments go straight to its own subparser; every other
    argv, and any argument that subparser leaves over, reads or fails as
    the whole parser reads it, with the top-level usage."""
    monkeypatch.setenv("COLUMNS", "80")
    assert main(list(argv)) == code
    assert capsys.readouterr() == (out, err)


def test_both_routes_give_one_namespace(monkeypatch, capsys):
    """A known command's arguments read by its own subparser give the
    Namespace the whole parser gives, command included."""
    parser, seen = cli.build_parser(), []

    def record(args):
        seen.append(vars(args))
        raise ValueError("recorded")

    for sub in parser.commands.values():
        sub.set_defaults(run=record)
    monkeypatch.setattr(cli, "_parser", lambda: parser)
    for argv in (["ram", "(5,t)"], ["equal", "(5,t)", "--p", "3", "(3,t)"],
                 ["distinguish", "--sweep", "7", "(2,t)", "(3,t)"],
                 ["witness", "(3, t)", "--at", "0", "--base", "fq:7"]):
        assert main(argv) == 1
        assert seen.pop() == vars(parser.parse_args(argv))
    assert capsys.readouterr().err == "error: recorded\n" * 4


def test_cli_output_is_byte_stable(capsys):
    for fmt in ("text", "json"):
        outs = []
        for _ in range(2):
            assert main(["distinguish", "(-1,t)", "(-2,t)", "--format", fmt]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0]


def test_cli_ram_json_payload(capsys):
    assert main(["ram", "(5,t)", "--format", "json", "--seed", "9"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tool"] == "brauercalc"
    assert data["command"] == "ram"
    assert data["inputs"] == {"base": "q", "class": "(5, t)", "p": 2, "seed": 9}
    out = data["outcome"]
    assert out["reciprocity"] is True
    assert out["ramification_points"] == 2
    assert [(row["point"], row["residue"]) for row in out["divisor"]] == [
        ("t", "5"),
        ("inf", "5"),
    ]
    assert out["divisor"][0]["residue_field"] == "Q(sqrt(5))"


def test_cli_equal_certificate(capsys):
    assert main(["equal", "(t,-1)+(t,-1)", "0", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    out = data["outcome"]
    assert out["equal"] is True and out["difference_unramified"] is True


def test_cli_distinguish_json(capsys):
    args = ["distinguish", "(5,t)+(-1,-1)", "(5,t)+(3,5)", "--format", "json"]
    assert main(args) == 0
    data = json.loads(capsys.readouterr().out)
    out = data["outcome"]
    assert out["outcome"] == "DistinguishedBySpecialization"
    assert out["certificate"]["separating_discriminant"] == "5"


def test_cli_enumerate_text(capsys):
    assert main(["enumerate", "(3,t)", "--base", "fq:7", "--p", "3"]) == 0
    text = capsys.readouterr().out
    assert "size: 2" in text and "bound: 4" in text
    assert "- (3, t)" in text and "- (2, t)" in text


def test_cli_witness_roundtrip(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    assert main(["witness", "(5,t)", "--at", "0", "--out", str(wfile)]) == 0
    capsys.readouterr()
    stored = json.loads(wfile.read_text())
    assert stored["kind"] == "splitting" and stored["m"] == 2
    assert stored["g"] == "-t/5"
    assert main(["verify-witness", "(5,t)", str(wfile), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    out = data["outcome"]
    assert out["kind"] == "splitting"
    assert out["mode"] == "full" and out["ok"] is True
    assert all(chk["passed"] for chk in out["checks"])


def test_cli_verify_witness_builds_a_divisor_only_for_a_ramified_pullback(
        tmp_path, monkeypatch, capsys):
    """For a bare symbol over Q whose pullback the comparison with zero
    finds unramified, the report says it ramifies at 0 points without
    building its divisor: with covers.ramification_divisor refused it is
    the same, byte for byte.  A cover that leaves the symbol ramified
    still counts the pullback's points."""
    cases = [("(5,t)", "0"), ("(-1,t)", "0"), ("(7/2, t-3)", "3"), ("(-7, t+1)", "-1")]
    runs = []
    for i, (text, at) in enumerate(cases):
        wfile = tmp_path / f"w{i}.json"
        assert main(["witness", text, f"--at={at}", "--out", str(wfile)]) == 0
        capsys.readouterr()
        for fmt in ("text", "json"):
            argv = ["verify-witness", text, str(wfile), "--format", fmt]
            assert main(argv) == 0
            runs.append((argv, capsys.readouterr().out))
    assert all("pullback ramifies at 0 points" in out for _, out in runs)
    stored = json.loads((tmp_path / "w1.json").read_text())
    (tmp_path / "same.json").write_text(json.dumps({**stored, "reparam": "t"}))
    assert main(["verify-witness", "(-1,t)", str(tmp_path / "same.json")]) == 0
    assert "pullback ramifies at 2 points" in capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("built the divisor of an unramified pullback")

    monkeypatch.setattr(covers, "ramification_divisor", refuse)
    for argv, out in runs:
        assert main(argv) == 0
        assert capsys.readouterr().out == out


def test_cli_witness_verifies_over_finite_base(tmp_path, capsys):
    """Over F_q the pullback's constant part is trivial without a regular
    point, as in the equal report for the same class."""
    cls_text = "(2, t) + (t+1, t+2) + (t+1, t+2)"
    fq = ["--base", "fq:3"]
    wfile = tmp_path / "w.json"
    assert main(["witness", cls_text, "--at", "0", "--out", str(wfile)] + fq) == 0
    assert main(["equal", cls_text, "(2, t)", "--format", "json"] + fq) == 0
    capsys.readouterr()
    for text in (cls_text, "(2, t)"):
        assert main(["verify-witness", text, str(wfile), "--format", "json"] + fq) == 0
        out = json.loads(capsys.readouterr().out)["outcome"]
        assert out["mode"] == "full" and out["ok"] is True
        (check,) = [c for c in out["checks"] if c["name"] == "pullback-constant-trivial"]
        assert check["detail"] == "constant classes over a finite field are trivial"


def test_cli_witness_round_trip_over_a_field_of_non_prime_order(tmp_path, capsys):
    """Over F_49 the witness symbol is the residue itself, which lies in F_7
    for an integer --at, so the file holds text the parser reads back."""
    flags = ["--base", "fq:49", "--p", "3"]
    wfile = tmp_path / "w.json"
    assert main(["witness", "(3, -2*t-12)", "--at", "-6", "--out", str(wfile)] + flags) == 0
    datum = json.loads(wfile.read_text())
    assert "[" not in datum["g"] and not any("[" in s for s in datum["symbol"])
    capsys.readouterr()
    argv = ["verify-witness", "(3, -2*t-12)", str(wfile), "--format", "json"] + flags
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["outcome"]["ok"] is True


def test_cli_verify_witness_errors(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    assert main(["witness", "(5,t)", "--at", "0", "--out", str(wfile)]) == 0
    # base recorded in the file must match the --base flag
    assert main(["verify-witness", "(5,t)", str(wfile), "--base", "fq:7"]) == 1
    # torsion mismatch
    assert main(["verify-witness", "(5,t)", str(wfile), "--p", "3"]) == 3
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["verify-witness", "(5,t)", str(bad)]) == 2
    assert main(["verify-witness", "(5,t)", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


def test_cli_deeply_nested_witness_file_is_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000 + "]" * 200000)
    assert main(["verify-witness", "(2, t)", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: offset 0: witness file is not UTF-8 JSON text")
    assert "recursion" in err


def test_cli_witness_file_that_is_not_utf8_is_a_parse_error(tmp_path, capsys):
    latin = tmp_path / "latin1.json"
    latin.write_bytes('{"kind": "splitting", "g": "t\u00e9"}'.encode("latin-1"))
    assert main(["verify-witness", "(2, t)", str(latin)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: offset 0: witness file is not UTF-8 JSON text")
    assert "can't decode byte 0xe9" in err


def test_cli_proves_a_prime_field_order_once(monkeypatch, capsys):
    # GF(q) factors q, and PrimeField(q) reads that factorization back
    proved = []
    real = fields._pocklington
    monkeypatch.setattr(fields, "_pocklington", lambda n: proved.append(n) or real(n))
    q = 2**89 - 1
    assert main(["ram", "(t, 3) + (t+1, 5)", "--base", f"fq:{q}"]) == 0
    assert proved == [q]
    assert "reciprocity: True" in capsys.readouterr().out


def test_cli_finite_base_prime_power(capsys):
    assert main(["ram", "(2,t)", "--base", "fq:9", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["inputs"]["base"] == "fq:9"


def test_cli_echoes_the_base_it_read(capsys):
    # the report names the field that was built, not the text typed
    assert main(["ram", "(2,t)", "--base", "fq:007"]) == 0
    assert "  base: fq:7\n" in capsys.readouterr().out


SRC = Path(__file__).resolve().parent.parent / "src"


def _run_cli(argv, **kwargs):
    """python -m brauercalc.cli in a child process, importing this checkout's src."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "brauercalc.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


def test_cli_subprocess_entrypoint():
    proc = _run_cli(["ram", "(5,t)", "--format", "json"], timeout=120)
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["outcome"]["reciprocity"] is True


# Bases of up to 2^62 elements that once listed a field: Cantor-Zassenhaus
# draws, QuotientField.elements(), GF's modulus search and the generator
# walk.  Each must answer or exit 3, in a child whose address space is
# capped so that listing the field fails at once.  The last call is over a
# small field, but its residue field F_{13^32} once took seconds of F_p
# arithmetic element by element; it must answer.  So must enumerate over
# 2^31 - 1: its residues are decided by their norms in the base field, so it
# asks for no generator of F_{(2^31-1)^2}, which the first 2^10 elements
# do not hold.
LARGE_FIELD_CALLS = {
    "cubic_over_2^31-1": "ram (t^3-6*t^2+11*t-6,t+5) --base fq:2147483647 --p 3",
    "t^2+1_over_2^31-1": "ram (t^2+1,t+2) --base fq:2147483647 --p 3",
    "ram_over_(2^31-1)^2": "ram (t,t+1) --base fq:4611686014132420609",
    "cubic_over_7^12": "ram (t^3+t+1,t+1) --base fq:13841287201 --p 3",
    "enumerate_over_2^31-1": "enumerate (t^2+1,t+2) --base fq:2147483647 --p 3",
    "degree_32_point_over_13": "ram (t^32+t+3,t) --base fq:13 --p 3",
}
MUST_ANSWER = {"degree_32_point_over_13", "enumerate_over_2^31-1"}


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


@pytest.mark.parametrize("name", sorted(LARGE_FIELD_CALLS))
def test_large_finite_fields_are_never_listed(name):
    proc = _run_cli(
        LARGE_FIELD_CALLS[name].split(), timeout=10, preexec_fn=_cap_address_space
    )
    codes = (0,) if name in MUST_ANSWER else (0, 3)
    assert proc.returncode in codes, proc.stdout + proc.stderr


# Hostile calls with the exit code each must give, in the same capped
# child: parse errors (2) for nesting, powers of sums and a zero
# denominator, out of scope (3) for huge degrees, p outside the Q base,
# torsion past points.MAX_TORSION over F_q and a residue field label past
# residues.MAX_LABEL_DIGITS, a usage error (1) for a field order that is
# no prime power, and answers for thousands of symbols and a prime order
# past 2^32.
HOSTILE_CALLS = {
    "3000_nested_parentheses": (2, ["ram", "(" * 3000 + "t, 3" + ")" * 3000]),
    "power_of_a_sum": (2, ["ram", "((t+1)^4000, 3)"]),
    "zero_denominator": (2, ["ram", "(t/(t-t), 3)"]),
    "degree_5000": (3, ["ram", "(t^5000, 3)"]),
    "degree_10^12": (3, ["ram", "(t^1000000000000, 3)"]),
    "p_zero_over_q": (3, ["ram", "(t, 3)", "--p", "0"]),
    "p_negative_over_q": (3, ["ram", "(t, 3)", "--p", "-5"]),
    # torsion must be prime over F_q too, whether or not it divides q - 1
    "p_zero_over_7": (3, ["ram", "(t, 3)", "--base", "fq:7", "--p", "0"]),
    "p_one_over_7": (3, ["ram", "(t, 3)", "--base", "fq:7", "--p", "1"]),
    "p_9_over_19": (3, ["ram", "(t, 3)", "--base", "fq:19", "--p", "9"]),
    "field_of_order_1": (1, ["ram", "(t, 3)", "--base", "fq:1"]),
    "3001_symbols": (0, ["ram", " + ".join(["(t, 3)"] * 3001)]),
    "prime_past_2^32": (0, ["ram", "(t, 3)", "--base", "fq:4294967311", "--p", "3"]),
    "p_2039_over_4079": (3, ["ram", "(t, 3)", "--base", "fq:4079", "--p", "2039"]),
    "p_100043_over_200087": (3, ["ram", "(t, 3)", "--base", "fq:200087", "--p", "100043"]),
    "p_10000079_over_20000159": (
        3, ["ram", "(t, 3)", "--base", "fq:20000159", "--p", "10000079"]
    ),
    "equal_p_10000079_over_20000159": (
        3, ["equal", "(t, 3)", "(t, 5)", "--base", "fq:20000159", "--p", "10000079"]
    ),
    "label_past_1000_digits": (3, ["ram", "(t, 3)", "--base", "fq:3989", "--p", "997"]),
    # integer literals and field orders are ASCII digits only
    "superscript_two_literal": (2, ["ram", "(t, \u00b2)"]),
    "arabic_indic_seven_literal": (2, ["ram", "(t, \u0667)"]),
    "base_order_after_a_space": (1, ["ram", "(t, 3)", "--base", "fq: 7"]),
    "base_order_with_a_plus": (1, ["ram", "(t, 3)", "--base", "fq:+7"]),
    "base_order_with_an_underscore": (1, ["ram", "(t, 3)", "--base", "fq:1_3"]),
    "base_order_in_arabic_indic_digits": (1, ["ram", "(t, 3)", "--base", "fq:\u0667"]),
    "base_order_of_5000_digits": (3, ["ram", "(t, 3)", "--base", "fq:" + "1" * 5000]),
}


@pytest.mark.parametrize("name", sorted(HOSTILE_CALLS))
def test_hostile_calls_end_with_their_exit_codes(name):
    code, argv = HOSTILE_CALLS[name]
    proc = _run_cli(argv, timeout=5, preexec_fn=_cap_address_space)
    assert proc.returncode == code, proc.stdout + proc.stderr


# Self-cancelling right sides: the left plus one symbol p times, which is
# zero.  Each must print its answer in the same capped child within 10 s,
# which needs the repeated symbols cancelled before any residue is taken:
# the full divisors work in residue fields of degree up to 32 and 24.
SELF_CANCELLING_CALLS = {
    "equal_plus_(3,t-1)_twice": (
        "equal: True",
        ["equal", "(t^32+1, t)", "(t^32+1, t) + (3, t-1) + (3, t-1)"],
    ),
    "distinguish_over_49_plus_(t,2)_thrice": (
        "outcome: Equal",
        ["distinguish", "(t^24+t^23+3, t^17-5)",
         "(t^24+t^23+3, t^17-5) + (t, 2) + (t, 2) + (t, 2)", "--base", "fq:49", "--p", "3"],
    ),
}


@pytest.mark.parametrize("name", sorted(SELF_CANCELLING_CALLS))
def test_self_cancelling_sides_answer_in_a_capped_child(name):
    line, argv = SELF_CANCELLING_CALLS[name]
    proc = _run_cli(argv, timeout=10, preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert line in (text.strip() for text in proc.stdout.splitlines())


# b adds one symbol to a shared degree-24/degree-17 symbol over F_49: the
# point of one support only is found on the net class, and the shared
# entries are never factored over F_49
ONE_SIDED_SYMBOL_CALLS = {
    "distinguish_over_49_plus_(t,2)": ("t", "(t, 2)"),
    "distinguish_over_49_plus_(t+1,3)": ("t + 1", "(t+1, 3)"),
}


@pytest.mark.parametrize("name", sorted(ONE_SIDED_SYMBOL_CALLS))
def test_one_sided_symbol_over_49_is_distinguished_in_a_capped_child(name):
    point, extra = ONE_SIDED_SYMBOL_CALLS[name]
    shared = "(t^24+t^23+3, t^17-5)"
    argv = ["distinguish", shared, f"{shared} + {extra}", "--base", "fq:49", "--p", "3"]
    start = time.perf_counter()
    proc = _run_cli(argv, timeout=10, preexec_fn=_cap_address_space)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [text.strip() for text in proc.stdout.splitlines()]
    assert "outcome: DistinguishedByRamificationField" in lines
    assert f"point: {point}" in lines
    assert elapsed < 2.0


def test_unramified_difference_answers_past_the_recombination_budget(monkeypatch, capsys):
    """With the recombination budget at 8, the Swinnerton-Dyer polynomial
    SD32 cannot be factored.  equal and distinguish still answer when the
    net class is unramified, since the specialization point and its values
    come from the entries' unit parts; ram needs the factors and exits 3."""
    monkeypatch.setattr(factoring, "_RECOMBINATION_BUDGET", 8)
    sd32 = "+".join(f"{c}*t^{i}" for i, c in enumerate(SD32) if c).replace("+-", "-")
    assert main(["equal", f"({sd32}, t)", f"({sd32}, t)"]) == 0
    assert "  equal: True" in capsys.readouterr().out.splitlines()
    assert main(["distinguish", f"({sd32}, 3)", f"({sd32}, 3) + (-1, -1)"]) == 0
    assert "  outcome: DistinguishedBySpecialization" in capsys.readouterr().out.splitlines()
    assert main(["ram", f"({sd32}, t)"]) == 3
    assert "recombination for a degree-32 factorization" in capsys.readouterr().err


def test_high_power_at_a_non_monic_quadratic_point_is_golden():
    # (t^2 + t/3 + 1/2)^15 (t + 1) against (6t^2 + 2t + 3) (3t + 7)^30: the
    # tame symbol at the quadratic point raises (3t + 7)^30 to the 15th
    # power modulo 6t^2 + 2t + 3, so its integer scalars must stay those of
    # the reduced value; the report is pinned, and the call answers fast.
    P = q_poly(3, 2, 6)
    a = RationalFunction(P**15 * q_poly(1, 1), Poly.constant(QQ, 6**15))
    b = RationalFunction(P * q_poly(7, 3) ** 30)
    text = class_text(BrauerClass.make(Q_BASE, 2, [(a, b)]))
    start = time.perf_counter()
    proc = _run_cli(["ram", text], timeout=10, preexec_fn=_cap_address_space)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    golden = Path(__file__).resolve().parent / "golden" / "ram_quadratic_power.txt"
    assert proc.stdout == golden.read_text(encoding="utf-8")
    assert elapsed < 1.0


def test_square_residue_at_a_degree_32_point_is_golden(capsys):
    # the residue t^2 at the point t^32 + 1 is the square of theta in a
    # degree-32 field: nf_sqrt factors a degree-64 norm polynomial and
    # reads the root theta off one factor in kappa[y]/(y^2 - t^2)
    assert main(["ram", "(t^32+1, t^2)"]) == 0
    golden = Path(__file__).resolve().parent / "golden" / "ram_degree_32_square_residue.txt"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_cli_parser_is_reused_after_usage_errors(capsys):
    # main() builds its argparse parser once per process; a usage error
    # must leave it fit for the next call
    fresh = _run_cli(["ram", "(5,t)"], timeout=120)
    assert fresh.returncode == 0
    assert main(["ram"]) == 1
    assert main(["ram", "(5,t)", "--p", "two"]) == 1
    capsys.readouterr()
    assert main(["ram", "(5,t)"]) == 0
    assert capsys.readouterr().out == fresh.stdout
    assert cli._parser() is cli._parser()


def test_entry_degree_is_bounded():
    bound = MAX_ENTRY_DEGREE
    assert parse_ratfunc(f"t^{bound}+1", QQ).num.degree == bound
    assert parse_ratfunc(f"1/t^{bound - 1}*t", QQ).den.degree == bound
    for text in (f"(t^{bound + 1}, t)", f"(t^{bound}*t, t)", f"(1/t^{bound}t, t)"):
        with pytest.raises(ScopeError):
            parse_class(text, Q_BASE, 2)


def test_zero_monomials_follow_poly_arithmetic():
    # a zero product has degree -1 however many powers of t it multiplies,
    # and is dropped before any coefficient list is made
    cls = parse_class("(0*t^32*t^32 + t, t)", Q_BASE, 2)
    assert cls.pairs() == parse_class("(t, t)", Q_BASE, 2).pairs()
    many = "*".join(["0"] + ["t^32"] * 2000)
    assert parse_ratfunc(f"{many} + 1", QQ) == RationalFunction.constant(QQ, 1)
    # the degree check comes before the zero factor is read
    with pytest.raises(ScopeError, match="^offset 4: degree 40 "):
        parse_ratfunc("t^20*t^20*0", QQ)
    # 7 vanishes mod 7, so the product is zero there and of degree 35 over Q
    assert parse_ratfunc("7*t^30*t^5 + t", GF(7)) == parse_ratfunc("t", GF(7))
    with pytest.raises(ScopeError, match="^offset 6: degree 35 "):
        parse_ratfunc("7*t^30*t^5 + t", QQ)


def test_long_literals_stay_small_over_a_finite_field():
    literal = "9" * 4000
    start = time.perf_counter()
    r = parse_ratfunc("*".join([literal] * 200) + "*t", GF(7))
    assert time.perf_counter() - start < 1.0
    assert r == RationalFunction(Poly.from_ints(GF(7), [0, pow(int(literal), 200, 7)]))


def _grammar_text(rng, p):
    """A class text over literals that vanish mod p or not, t^0, implicit
    products, repeated exponents and at times a repeated term; about one in
    six is broken."""

    def factor():
        r = rng.random()
        if r < 0.4:
            return str(rng.choice([0, 1, 2, p, 3 * p, rng.randint(0, 60), 10 ** 25 * p]))
        if r < 0.6:
            return "t"
        return f"t^{rng.choice([0, 0, 1, 2, 5, 16, 16, 20, 32, 33])}"

    def product():
        out = factor()
        for _ in range(rng.randint(0, 3)):
            nxt = factor()
            out += (rng.choice(["*", " * ", ""]) if nxt[0] == "t" else "*") + nxt
        return out

    def poly():
        out = rng.choice(["", "-"]) + product()
        for _ in range(rng.randint(0, 3)):
            out += rng.choice(["+", " - ", "-"]) + product()
        return out

    def rat():
        return poly() if rng.random() < 0.6 else f"{poly()}/{poly()}"

    terms = [f"({rat()}, {rat()})" for _ in range(rng.randint(1, 2))]
    text = " + ".join(terms + rng.choice([[], [], terms[-1:]]))
    if rng.random() < 0.15:
        i = rng.randrange(len(text) + 1)
        # a stray ASCII or Arabic-Indic digit, a no-break space, or the
        # first term again
        again = "+" + text[:text.index(")") + 1]
        text = text[:i] + rng.choice([*"*^)t/+x(0\u0663\u00a0", again]) + text[i:]
    return text


def _read_class(text, base, reader=None):
    """("ok", pairs()), or the error's type and message, which carries the
    offset: by parse_class, or by a reference reader."""
    try:
        if reader is None:
            return "ok", parse_class(text, base, 2).pairs()
        return "ok", BrauerClass.make(base, 2, reader(text, base.field).parse_class()).pairs()
    except (ParseError, ScopeError) as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("base", [Q_BASE, F7, FiniteBase(9)], ids=["Q", "F7", "F9"])
def test_parser_matches_poly_arithmetic(base):
    rng = random.Random(1700)
    char = base.field.char or 7
    outcomes = set()
    for _ in range(300):
        text = _grammar_text(rng, char)
        got = _read_class(text, base)
        assert got == _read_class(text, base, PolyArithmeticParser), text
        outcomes.add(got[0])
    assert outcomes == {"ok", "ParseError", "ScopeError"}


def test_every_code_point_is_classed_as_the_reference_classes_it():
    """Every code point but the surrogates is a grammar character, ASCII
    digit or space for the library's patterns exactly when the reference
    tokenizer reads it as one, and the pattern splits those characters into
    the reference's tokens: the library's digits are [0-9] and its spaces \\s."""
    chars = "".join(chr(cp) for cp in range(0x110000) if not 0xD800 <= cp <= 0xDFFF)
    kept = _stray.__self__.sub("", chars)
    assert kept == "".join(c for c in chars if c.isspace() or c in "0123456789t+-*/^(),")
    assert _tokens(kept) == [tok for _, tok, _ in _tokenize(kept)[:-1]]


def test_hostile_characters_read_as_the_reference_reads_them():
    """Between t and 1, ASCII, the known hostile characters and a seeded
    sample of code points are an ASCII token, whitespace or an unexpected
    character at offset 2 for both readers alike."""
    rng = random.Random(11)
    sample = [*map(chr, range(128)), "\u0663", "\u00b2", "\u00a0", "\u3000", "\u001c"]
    sample += [chr(rng.choice([rng.randrange(0xD800), rng.randrange(0xE000, 0x110000)]))
               for _ in range(2000)]
    outcomes = set()
    for c in sample:
        text = f"(t{c}1, 2)"
        got = _read_class(text, Q_BASE)
        assert got == _read_class(text, Q_BASE, PolyArithmeticParser), hex(ord(c))
        outcomes.add(got[0] if got[0] == "ok" else got[1][:9])
    # ok for + - * / ^ t; at 2 a stray character, a digit, ( or ); at 3 a
    # space; at 4 a comma
    assert outcomes == {"ok", "offset 2:", "offset 3:", "offset 4:"}


def test_unicode_spaces_separate_tokens(capsys):
    assert main(["ram", "(5,t)"]) == 0
    plain = capsys.readouterr().out
    for space in "\u00a0\u3000\u001c":
        assert main(["ram", f"({space}5{space},{space}t{space})"]) == 0
        assert capsys.readouterr().out == plain


def test_huge_exponent_is_out_of_scope_at_once(capsys):
    start = time.perf_counter()
    assert main(["ram", "(t^200000+1, t)"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "out of scope" in capsys.readouterr().err


def test_overlong_integer_literals_are_out_of_scope(capsys):
    digits = "7" * 5000
    assert main(["ram", f"({digits}, t)"]) == 3
    assert main(["ram", f"(t^{digits}+1, t)"]) == 3
    err = capsys.readouterr().err
    assert err.count("out of scope") == 2
    assert "integer literal of 5000 digits" in err


def test_finite_residue_exponent_needs_no_log_table(capsys):
    # t^12 - 7 is irreducible over F_13; a table of logs in its residue
    # field would hold 13^12 - 1 entries
    start = time.perf_counter()
    assert main(["ram", "(t^12-7, t)", "--base", "fq:13", "--p", "3"]) == 0
    assert time.perf_counter() - start < 2.0
    assert "t^12" in capsys.readouterr().out


def test_degree_eight_field_modulus_search_is_fast(capsys):
    # GF(3^8) searches degree-8 moduli over F_3; the 3^7 tails with a zero
    # constant term are all divisible by t
    start = time.perf_counter()
    assert main(["ram", "(t^2-2, t)", "--base", "fq:6561", "--p", "2"]) == 0
    assert time.perf_counter() - start < 2.0
    assert "ramification_points: 0" in capsys.readouterr().out


def test_semiprime_with_large_factors_is_out_of_scope(capsys):
    start = time.perf_counter()
    assert main(["ram", "(100000000000000000039*100000000000000000129, t)"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "Pollard-Brent" in capsys.readouterr().err


def test_twelve_base_pseudoprime_is_no_place(capsys):
    # psi12 = 399165290221 * 798330580441 passes Miller-Rabin to the bases
    # 2..37; it must not be listed as a nonsplit place
    start = time.perf_counter()
    assert main(["equal", "(318665857834031151167461, 43)", "(43, 43)"]) == 3
    assert time.perf_counter() - start < 2.0
    captured = capsys.readouterr()
    assert "318665857834031151167461" not in captured.out
    assert "Pollard-Brent" in captured.err


def test_thirteen_base_pseudoprime_is_no_place_and_no_field(capsys):
    # psi13 = 1287836182261 * 2575672364521 passes Miller-Rabin to the bases
    # 2..41; Pollard-Brent cannot split it within its budget
    psi13 = "3317044064679887385961981"
    for argv in (
        ["equal", f"({psi13}, 43)", "(43, 43)"],
        ["ram", "(t, 3) + (t+1, 5)", "--base", f"fq:{psi13}"],
    ):
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert psi13 not in captured.out
        assert "Pollard-Brent" in captured.err


def test_four_thousand_digit_integer_is_out_of_scope(capsys):
    # one Miller-Rabin base alone would take seconds at 13,000 bits
    n = random.Random(37).randrange(10**3999, 10**4000)
    for text in (f"({n}, t)", f"({n}*t+1, t)"):
        start = time.perf_counter()
        assert main(["ram", text]) == 3
        assert time.perf_counter() - start < 1.0
        assert "512-bit limit" in capsys.readouterr().err


def test_enumerate_over_too_many_points_is_out_of_scope(capsys):
    # (2, t - i) ramifies at t = i and the sum also at infinity: 12 points,
    # 2^12 twist tuples for p = 3
    text = " + ".join(f"(2, t-{i})" for i in range(1, 12))
    start = time.perf_counter()
    assert main(["enumerate", text, "--base", "fq:13", "--p", "3"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "4096 tuples over 12 points" in capsys.readouterr().err


EQUAL_OBSTRUCTION_TEXT = """\
brauercalc 0.1.0: equal
inputs:
  base: q
  left: (5, t)
  p: 2
  right: (3, t)
  seed: 0
outcome:
  difference_unramified: False
  equal: False
  obstruction:
    point: t
    residue: 15
"""

EQUAL_NONSPLIT_TEXT = """\
brauercalc 0.1.0: equal
inputs:
  base: q
  left: (5, t)
  p: 2
  right: (5, t) + (-1, -1)
  seed: 0
outcome:
  constant_difference:
    at: 1
    nonsplit_places:
      - 2
      - inf
    pairs:
      -
        - 5
        - 1
      -
        - 5
        - 1
      -
        - -1
        - -1
    trivial: False
  difference_unramified: True
  equal: False
"""


@pytest.mark.parametrize(
    "right, text, outcome",
    [
        (
            "(3, t)",
            EQUAL_OBSTRUCTION_TEXT,
            {
                "difference_unramified": False,
                "equal": False,
                "obstruction": {"point": "t", "residue": "15"},
            },
        ),
        (
            "(5, t) + (-1, -1)",
            EQUAL_NONSPLIT_TEXT,
            {
                "constant_difference": {
                    "at": "1",
                    "nonsplit_places": ["2", "inf"],
                    "pairs": [["5", "1"], ["5", "1"], ["-1", "-1"]],
                    "trivial": False,
                },
                "difference_unramified": True,
                "equal": False,
            },
        ),
    ],
)
def test_cli_equal_on_unequal_classes_is_golden(capsys, right, text, outcome):
    assert main(["equal", "(5, t)", right]) == 0
    assert capsys.readouterr().out == text
    assert main(["equal", "(5, t)", right, "--format", "json"]) == 0
    payload = {
        "command": "equal",
        "inputs": {"base": "q", "left": "(5, t)", "p": 2, "right": right, "seed": 0},
        "outcome": outcome,
        "tool": "brauercalc",
        "version": "0.1.0",
    }
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


EQUAL_CANCELLED_TEXT = """\
brauercalc 0.1.0: equal
inputs:
  base: q
  left: (5, t)
  p: 2
  right: (5, t) + (3, t) + (3, t)
  seed: 0
outcome:
  constant_difference:
    at: 1
    pairs:
      -
        - 5
        - 1
      -
        - 5
        - 1
      -
        - 3
        - 1
      -
        - 3
        - 1
    trivial: True
  difference_unramified: True
  equal: True
"""


def test_cli_equal_on_a_cancelled_difference_is_golden(capsys):
    """The difference cancels symbol by symbol, so the classes are equal
    with no sweep; the report still prints the specialization."""
    right = "(5, t) + (3, t) + (3, t)"
    assert main(["equal", "(5, t)", right]) == 0
    assert capsys.readouterr().out == EQUAL_CANCELLED_TEXT
    assert main(["equal", "(5, t)", right, "--format", "json"]) == 0
    payload = {
        "command": "equal",
        "inputs": {"base": "q", "left": "(5, t)", "p": 2, "right": right, "seed": 0},
        "outcome": {
            "constant_difference": {
                "at": "1",
                "pairs": [["5", "1"], ["5", "1"], ["3", "1"], ["3", "1"]],
                "trivial": True,
            },
            "difference_unramified": True,
            "equal": True,
        },
        "tool": "brauercalc",
        "version": "0.1.0",
    }
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"


EQUAL_BOTH_NONSPLIT_TEXT = """\
brauercalc 0.1.0: equal
inputs:
  base: q
  left: (-1, -1) + (5, t)
  p: 2
  right: (5, t) + (-1, 3)
  seed: 0
outcome:
  constant_difference:
    at: 1
    nonsplit_places:
      - 3
      - inf
    pairs:
      -
        - -1
        - -1
      -
        - 5
        - 1
      -
        - 5
        - 1
      -
        - -1
        - 1/3
    trivial: False
  difference_unramified: True
  equal: False
"""


def test_cli_equal_lists_where_two_nonsplit_halves_differ(capsys):
    # (-1, -1) is nonsplit at 2 and inf, (-1, 3) at 2 and 3: the difference
    # is nonsplit where exactly one of them is
    args = ["equal", "(-1, -1) + (5, t)", "(5, t) + (-1, 3)"]
    assert main(args) == 0
    assert capsys.readouterr().out == EQUAL_BOTH_NONSPLIT_TEXT
    assert main(args + ["--format", "json"]) == 0
    cert = json.loads(capsys.readouterr().out)["outcome"]["constant_difference"]
    assert cert["nonsplit_places"] == ["3", "inf"] and cert["trivial"] is False


@pytest.mark.parametrize(
    "key, value",
    [("symbol", 5), ("g", 5), ("reparam", 7), ("m", [2]), ("symbol", ["t"]),
     ("m", 2.5), ("m", True), ("m", "2")],
    ids=["symbol-int", "g-int", "reparam-int", "m-list", "symbol-one-entry",
         "m-float", "m-bool", "m-string"],
)
def test_cli_verify_witness_rejects_mistyped_fields(tmp_path, capsys, key, value):
    wfile = tmp_path / "w.json"
    assert main(["witness", "(5,t)", "--at", "0", "--out", str(wfile)]) == 0
    obj = json.loads(wfile.read_text())
    obj[key] = value
    wfile.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["verify-witness", "(5,t)", str(wfile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and repr(key) in err


@pytest.mark.parametrize(
    "base, p, cls_text, pole",
    [
        (Q_BASE, 2, "(5, t^2-t)", None),
        # a degree-2 pole point with p = 3 takes the congruence search
        (F7, 3, "(3, t^2-t)", [1, 0, 1]),
    ],
)
def test_cli_verifies_unramified_witness(tmp_path, capsys, base, p, cls_text, pole):
    cls = parse_class(cls_text, base, p)
    bpt = None if pole is None else ClosedPoint(base, Poly.from_ints(base.field, pole))
    wfile = tmp_path / "w.json"
    wfile.write_text(json_text(witness_to_obj(make_unramified_cover(cls, 2, bpt))))
    flags = ["--base", "q" if base is Q_BASE else "fq:7", "--p", str(p)]
    assert main(["verify-witness", cls_text, str(wfile), "--format", "json"] + flags) == 0
    out = json.loads(capsys.readouterr().out)["outcome"]
    assert out["kind"] == "unramified" and out["mode"] == "certificates-only"
    assert out["ok"] is True
    names = [c["name"] for c in out["checks"]]
    assert names.count("eisenstein-valuation") == (2 if pole is None else 3)


def _failed_checks(argv, capsys):
    assert main(argv + ["--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)["outcome"]
    assert out["ok"] is False
    return [c["name"] for c in out["checks"] if not c["passed"]]


def test_cli_splitting_witness_with_a_pole_at_its_basepoint_fails_a_check(tmp_path, capsys):
    wfile = tmp_path / "w.json"
    assert main(["witness", "(3, t)", "--at", "0", "--out", str(wfile)]) == 0
    capsys.readouterr()
    wfile.write_text(json.dumps({**json.loads(wfile.read_text()), "g": "1/t"}))
    failed = _failed_checks(["verify-witness", "(3, t)", str(wfile)], capsys)
    assert failed == ["cover-vanishes-simply-at-point", "fiber-root"]


def test_cli_unramified_witness_with_a_pole_at_its_basepoint_fails_a_check(tmp_path, capsys):
    cls = parse_class("(5, t^2-t)", Q_BASE, 2)
    datum = json.loads(json_text(witness_to_obj(make_unramified_cover(cls, 2))))
    wfile = tmp_path / "w.json"
    wfile.write_text(json.dumps({**datum, "f": "1/t", "basepoint": "0"}))
    failed = _failed_checks(["verify-witness", "(5, t^2-t)", str(wfile)], capsys)
    assert failed == ["basepoint-regular", "fiber-root"]
