"""Seeded workload streams, the operation each entry runs, and its checks.

A workload is an endless stream of operations.  Its shapes (symbol
counts, degrees, which entries have denominators, the command or base
of each op) come from one fixed random stream, the same for every seed;
the coefficients come from random.Random(seed).  So every seed has the
same input sizes, the same seed gives the same inputs, and the library
sees only the generated inputs.  Every operation goes through
the public API (or, for cli_mix, through cli.main) of the library
modules passed in as `lib`, so a fresh import gives fresh module
caches.

check() turns an operation's output into canonical text for the
output digest, and raises CheckError when a fact that holds by
construction does not.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random

# Where cli_mix writes its witness files, relative to the checkout root.
WORK_DIR = os.path.join("bench", "_work")


class CheckError(Exception):
    """An output contradicts a fact the workload built into its input."""


def _require(ok, what):
    if not ok:
        raise CheckError(what)


@dataclass(frozen=True)
class Workload:
    name: str
    rate: float  # ops/s of one replay on a slow 2-core Xeon; sizes replays
    stream: object  # (lib, rng, shape) -> iterator of ops
    run: object  # (lib, op) -> output
    check: object  # (lib, op, output) -> canonical text


# ---------------------------------------------------------------------------
# random polynomials and classes

def _poly(rng, lib, field, degree, coeff):
    """Polynomial of exactly the given degree with random coefficients."""
    while True:
        coeffs = [coeff(rng) for _ in range(degree + 1)]
        if coeffs[-1] != field.zero:
            return lib.poly.Poly(field, coeffs)


def _entry(rng, shape, lib, field, max_degree, coeff):
    """Nonzero rational function whose total degree is at most max_degree."""
    num = _poly(rng, lib, field, shape.randint(0, max_degree), coeff)
    if shape.random() < 0.5:
        return lib.poly.RationalFunction(num)
    den = _poly(rng, lib, field, shape.randint(0, max_degree - num.degree), coeff)
    return lib.poly.RationalFunction(num, den)


def _class(rng, shape, lib, base, p, max_symbols, max_degree, coeff):
    pairs = [
        (
            _entry(rng, shape, lib, base.field, max_degree, coeff),
            _entry(rng, shape, lib, base.field, max_degree, coeff),
        )
        for _ in range(shape.randint(1, max_symbols))
    ]
    return lib.brauer.BrauerClass.make(base, p, pairs)


def _q_coeff(height):
    return lambda rng: Fraction(rng.randint(-height, height))


def _q_class(rng, shape, lib, max_symbols, max_degree, height=10):
    return _class(
        rng, shape, lib, lib.points.Q_BASE, 2, max_symbols, max_degree, _q_coeff(height)
    )


# ---------------------------------------------------------------------------
# q_equal: classes_equal and reciprocity over Q, p = 2

def _q_equal_stream(lib, rng, shape):
    k = 0
    while True:
        a = _q_class(rng, shape, lib, 3, 3)
        mode = k % 3
        if mode == 0:
            b = a
        elif mode == 1:
            s = _q_class(rng, shape, lib, 1, 2)
            b = a + s + s
        else:
            b = a + _q_class(rng, shape, lib, 1, 2)
        yield (mode, a, b)
        k += 1


def _q_equal_run(lib, op):
    _, a, b = op
    return lib.brauer.classes_equal(a, b), lib.brauer.reciprocity_check(a)


def _q_equal_check(lib, op, out):
    mode, _, _ = op
    equal, recip = out
    _require(recip is True, "reciprocity_check(a) is not True")
    if mode < 2:
        _require(equal is True, "(a, a) or (a, a + s + s) is not equal")
    return f"{equal} {recip}"


# ---------------------------------------------------------------------------
# q_split_distinguish: distinguish over Q, p = 2, all points rational

# Constant quaternion classes that are nonsplit whatever the squares k^2
# and m^2: (-1,-1) at 2 and inf, (-1,3) at 3, (-1,7) at 7, (2,5) and
# (3,5) at 5, each read off a Legendre symbol.
_NONSPLIT = ((-1, -1), (-1, 3), (-1, 7), (2, 5), (3, 5))


def _split_entry(rng, shape, lib):
    """A unit times at most four rational linear factors, some as poles."""
    QQ = lib.poly.QQ
    Poly, RF = lib.poly.Poly, lib.poly.RationalFunction
    unit = Fraction(rng.choice([-1, 1]) * rng.randint(1, 10), rng.randint(1, 3))
    out = RF.constant(QQ, unit)
    for _ in range(shape.randint(0, 4)):
        root = Fraction(rng.randint(-8, 8), rng.choice([1, 1, 1, 2, 3]))
        lin = RF(Poly(QQ, [-root, QQ.one]))
        out = out * lin if shape.random() < 0.75 else out / lin
    return out


def _split_class(rng, shape, lib):
    pairs = [
        (_split_entry(rng, shape, lib), _split_entry(rng, shape, lib))
        for _ in range(shape.randint(1, 2))
    ]
    return lib.brauer.BrauerClass.make(lib.points.Q_BASE, 2, pairs)


def _q_split_stream(lib, rng, shape):
    k = 0
    while True:
        a = _split_class(rng, shape, lib)
        mode = k % 3
        if mode == 0:
            s = _split_class(rng, shape, lib)
            b = a + s + s
        elif mode == 1:
            u, v = rng.choice(_NONSPLIT)
            u *= rng.randint(1, 5) ** 2
            v *= rng.randint(1, 5) ** 2
            b = a + lib.brauer.BrauerClass.make(lib.points.Q_BASE, 2, [(u, v)])
        else:
            b = _split_class(rng, shape, lib)
        yield (mode, a, b)
        k += 1


def _q_split_run(lib, op):
    _, a, b = op
    return lib.distinguish.distinguish(a, b)


def _recheck_specialization(lib, a, b, cert):
    brauer, hilbert = lib.brauer, lib.hilbert
    _require(cert.left_pairs == brauer.specialize(a, cert.at), "left pairs differ")
    _require(cert.right_pairs == brauer.specialize(b, cert.at), "right pairs differ")
    for pairs, trivial in ((cert.left_pairs, cert.left_trivial),
                           (cert.right_pairs, cert.right_trivial)):
        _require(
            brauer.constant_is_trivial(a.base, pairs, a.p) == trivial,
            "specialization triviality does not re-check",
        )
    if cert.left_trivial == cert.right_trivial:
        _require(not cert.left_trivial, "both specializations trivial")
        d = cert.discriminant
        sa = hilbert.invariant_set(cert.left_pairs)
        sb = hilbert.invariant_set(cert.right_pairs)
        _require(
            d is not None
            and hilbert.splits_invariant_set(d, sa) != hilbert.splits_invariant_set(d, sb),
            "separating discriminant does not separate",
        )


def _q_split_check(lib, op, verdict):
    mode, a, b = op
    dist = lib.distinguish
    _require(lib.brauer.reciprocity_check(a) is True, "reciprocity_check(a) is not True")
    if mode == 0:
        _require(verdict.outcome == dist.EQUAL, "(a, a + s + s) is not Equal")
    if mode == 1:
        _require(verdict.outcome != dist.EQUAL, "a nonsplit constant was lost")
    if verdict.outcome == dist.BY_SPECIALIZATION:
        _recheck_specialization(lib, a, b, verdict.certificate)
    return json.dumps(lib.report.distinguish_outcome(verdict), sort_keys=True)


# ---------------------------------------------------------------------------
# fq_enumerate: divisor, reciprocity and candidates over finite bases

# (q, p, largest entry degree).  F_9 arithmetic runs through tuples in
# a quotient field and costs several times more per op than the prime
# fields, so its entries stay linear to keep op costs close together.
_FQ_SETTINGS = ((7, 2, 2), (7, 3, 2), (13, 3, 2), (9, 2, 1))


def _fq_stream(lib, rng, shape):
    k = 0
    while True:
        q, p, degree = _FQ_SETTINGS[k % len(_FQ_SETTINGS)]
        base = lib.points.FiniteBase(q)
        elems = list(base.field.elements())
        # at most two symbols of small entries keep r, the support size,
        # small enough that no single class dominates a run
        yield _class(rng, shape, lib, base, p, 2, degree, lambda r: r.choice(elems))
        k += 1


def _fq_run(lib, cls):
    brauer = lib.brauer
    return (
        brauer.ramification_divisor(cls),
        brauer.reciprocity_check(cls),
        lib.distinguish.enumerate_candidates(cls),
    )


def _fq_check(lib, cls, out):
    div, recip, cand = out
    _require(recip is True, "reciprocity_check is not True")
    _require(cand.support == div.support(), "candidate support is not the divisor's")
    _require(cand.bound == (cls.p - 1) ** len(cand.support), "wrong (p-1)^r bound")
    _require(cand.size <= cand.bound, "more candidates than (p-1)^r")
    rep = lib.report
    return json.dumps(
        [rep.divisor_payload(div), recip, rep.enumerate_outcome(cand)], sort_keys=True
    )


# ---------------------------------------------------------------------------
# cli_mix: every command through cli.main, small classes

def _int_poly_text(rng, degree, height):
    """Grammar text of an integer polynomial of exactly this degree."""
    terms = []
    for i in range(degree, -1, -1):
        c = rng.randint(-height, height)
        if i == degree and c == 0:
            c = rng.choice([-1, 1]) * rng.randint(1, height)
        if c == 0:
            continue
        mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        coef = str(abs(c)) if (abs(c) != 1 or not mono) else ""
        sep = "*" if coef and mono else ""
        sign = "-" if c < 0 else ("+" if terms else "")
        terms.append(f"{sign}{coef}{sep}{mono}")
    return "".join(terms)


def _rat_text(rng, shape, max_degree, height):
    num = _int_poly_text(rng, shape.randint(0, max_degree), height)
    if shape.random() < 0.5:
        return num
    den = _int_poly_text(rng, shape.randint(1, max_degree), height)
    return f"{num}/{den}"


def _class_text(rng, shape, max_symbols, max_degree, height):
    return " + ".join(
        f"({_rat_text(rng, shape, max_degree, height)}, "
        f"{_rat_text(rng, shape, max_degree, height)})"
        for _ in range(shape.randint(1, max_symbols))
    )


def _linear_text(u, c):
    """Text of u*(t - c) with integer u != 0."""
    const = -u * c
    lead = {1: "t", -1: "-t"}.get(u, f"{u}*t")
    if const == 0:
        return lead
    return f"{lead}{'+' if const > 0 else '-'}{abs(const)}"


_FQ_CLI = ((7, 2), (7, 3), (13, 3))
_NONSQUARES = (-1, 2, 3, 5, 6, 7, -2, -3, 10, 11)


def _cli_stream(lib, rng, shape):
    """Commands in a fixed cycle, so every run has the same command mix."""
    witness = os.path.join(WORK_DIR, "witness.json")
    k = 0
    while True:
        q, p = _FQ_CLI[k % len(_FQ_CLI)]
        fq = ["--base", f"fq:{q}", "--p", str(p)]
        a = _class_text(rng, shape, 2, 2, 9)
        s = _class_text(rng, shape, 1, 1, 9)
        # coefficients below q/2 with a nonzero leading one never vanish mod q
        a_fq = _class_text(rng, shape, 2, 2, (q - 1) // 2)
        c = rng.randint(-9, 9)
        u = rng.choice([-3, -2, -1, 1, 2, 3])
        sym = f"({rng.choice(_NONSQUARES)}, {_linear_text(u, c)})"
        yield ("ram", ["ram", a])
        yield ("ram", ["ram", a_fq, "--format", "json"] + fq)
        yield ("equal", ["equal", a, f"{a} + {s} + {s}"])
        yield ("distinguish", ["distinguish", a, _class_text(rng, shape, 1, 2, 9)])
        yield ("enumerate", ["enumerate", _class_text(rng, shape, 1, 2, (q - 1) // 2)] + fq)
        yield ("witness", ["witness", sym, "--at", str(c), "--out", witness])
        yield ("verify", ["verify-witness", sym, witness, "--format", "json"])
        k += 1


def _cli_run(lib, op):
    _, argv = op
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _cli_check(lib, op, out):
    kind, _ = op
    code, text, err = out
    _require(code == 0, f"exit code {code}: {err.strip()}")
    if kind == "ram":
        _require(
            "reciprocity: True" in text or '"reciprocity": true' in text,
            "reciprocity is not True",
        )
    elif kind == "equal":
        _require("  equal: True\n" in text, "(a, a + s + s) is not equal")
    elif kind == "verify":
        _require(json.loads(text)["outcome"]["ok"] is True, "witness does not verify")
    return text


# Why each workload was chosen: bench/NOTES.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("q_equal", 9.0, _q_equal_stream, _q_equal_run, _q_equal_check),
        Workload(
            "q_split_distinguish", 22.0, _q_split_stream, _q_split_run, _q_split_check
        ),
        Workload("fq_enumerate", 35.0, _fq_stream, _fq_run, _fq_check),
        Workload("cli_mix", 50.0, _cli_stream, _cli_run, _cli_check),
    )
}


def stream(workload, lib, seed):
    tag = f"brauercalc-bench:{workload.name}"
    return workload.stream(lib, Random(f"{tag}:{seed}"), Random(f"{tag}:shapes"))
