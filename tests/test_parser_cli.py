"""Expression grammar round trips and the command-line surface.

The printer is the inverse of the parser on its own output; that
property is exercised on generated classes over each supported base.
CLI tests call main() in-process and assert on exit codes and on
byte-identical reruns; one subprocess test covers the module entry
point end to end.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from brauercalc.brauer import BrauerClass
from brauercalc import cli
from brauercalc.cli import main
from brauercalc.errors import ParseError, ScopeError
from brauercalc.fields import GF, multiplicative_generator
from brauercalc.parser import (
    MAX_ENTRY_DEGREE,
    class_text,
    parse_class,
    parse_ratfunc,
    ratfunc_text,
)
from brauercalc.points import FiniteBase, Q_BASE
from brauercalc.poly import Poly, QQ, RationalFunction

from _gen import F7, random_class


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
            c = random_class(rng, base, p, 3, 3, height=30)
            text = class_text(c)
            expr = parse_class(text, base, p)
            assert expr.cls.pairs() == c.pairs(), text
            assert class_text(expr.cls) == text


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
        expr = parse_class(text, Q_BASE, 2)
        assert expr.cls.symbols == ()
        assert expr.canonical() == "0"


def test_canonical_spacing():
    expr = parse_class("( 5 ,t )+(t,-1)", Q_BASE, 2)
    assert expr.canonical() == "(5, t) + (t, -1)"


def test_nonprime_coefficients_fall_back_to_display():
    f49 = GF(49)
    gen = multiplicative_generator(f49)
    r = RationalFunction.constant(f49, gen)
    text = ratfunc_text(r)
    assert "[" in text
    with pytest.raises(ParseError):
        parse_ratfunc(text, f49)


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


def test_cli_rejects_negative_sweep(capsys):
    argv = ["distinguish", "(2,t)", "(2,t)+(-1,-1)", "--sweep", "-1"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "nonnegative" in captured.err and "sweep: -1" not in captured.out


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


def test_cli_finite_base_prime_power(capsys):
    assert main(["ram", "(2,t)", "--base", "fq:9", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["inputs"]["base"] == "fq:9"


def test_cli_subprocess_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "brauercalc.cli", "ram", "(5,t)", "--format", "json"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["outcome"]["reciprocity"] is True


def test_cli_parser_is_reused_after_usage_errors(capsys):
    # main() builds its argparse parser once per process; a usage error
    # must leave it fit for the next call
    fresh = subprocess.run(
        [sys.executable, "-m", "brauercalc.cli", "ram", "(5,t)"],
        capture_output=True,
        text=True,
        timeout=120,
    )
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


def test_semiprime_with_large_factors_is_out_of_scope(capsys):
    start = time.perf_counter()
    assert main(["ram", "(100000000000000000039*100000000000000000129, t)"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "Pollard-Brent" in capsys.readouterr().err


def test_enumerate_over_too_many_points_is_out_of_scope(capsys):
    # (2, t - i) ramifies at t = i and the sum also at infinity: 12 points,
    # 2^12 twist tuples for p = 3
    text = " + ".join(f"(2, t-{i})" for i in range(1, 12))
    start = time.perf_counter()
    assert main(["enumerate", text, "--base", "fq:13", "--p", "3"]) == 3
    assert time.perf_counter() - start < 1.0
    assert "4096 tuples over 12 points" in capsys.readouterr().err
