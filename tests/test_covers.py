"""Kummer covers: splitting witnesses and unramifying covers.

Frozen examples pin the exact cover equations; random loops then lean
on the library's own verifiers, which recompute valuations and residues
from scratch rather than trusting the construction.
"""

import itertools
import random
from fractions import Fraction

import pytest

from brauercalc import covers
from brauercalc.brauer import BrauerClass, ramification_divisor, residue_at
from brauercalc.covers import (
    KummerCoverDatum,
    Reparametrization,
    make_unramified_cover,
    pullback_class,
    splitting_witness,
    unramified_cover_certificates,
    verify_splitting_witness,
)
from brauercalc.factoring import factor_poly, is_irreducible
from brauercalc.fields import multiplicative_generator
from brauercalc.points import ClosedPoint, FiniteBase, Q_BASE, valuation_at
from brauercalc.poly import Poly, QQ, RationalFunction
from brauercalc.report import witness_to_obj
from brauercalc.residues import is_pth_power

from _gen import F7, F13, nonsquare_rational, nonzero_rational, rational

T = Poly.from_ints(QQ, [0, 1])


def q_poly(*coeffs):
    return Poly.from_ints(QQ, list(coeffs))


def test_witness_five_t():
    w = splitting_witness(Q_BASE, 2, 5, T)
    assert w.kind == "splitting" and w.m == 2
    assert w.basepoint_t == Fraction(0)
    assert w.g == RationalFunction(Poly(QQ, [Fraction(0), Fraction(-1, 5)]))
    # rational parametrization t = -5 s^2
    assert w.reparam.subst == RationalFunction(q_poly(0, 0, -5))
    assert w.fiber_root == Fraction(0)
    cls = BrauerClass.make(Q_BASE, 2, [(5, T)])
    report = verify_splitting_witness(cls, w)
    assert report.mode == "full" and report.ok
    assert [c.name for c in report.checks] == [
        "cover-vanishes-simply-at-point",
        "fiber-root",
        "pullback-unramified-above-point",
        "pullback-divisor-empty",
        "pullback-constant-trivial",
    ]
    assert report.notes == ()


def test_witness_minus_one_t():
    w = splitting_witness(Q_BASE, 2, -1, T)
    assert w.g == RationalFunction(T)
    assert w.reparam.subst == RationalFunction(q_poly(0, 0, 1))


def test_witness_absorbs_unit():
    w = splitting_witness(Q_BASE, 2, 3, q_poly(30, -15))
    assert w.basepoint_t == Fraction(2)
    assert w.g == RationalFunction(q_poly(-10, 5))
    assert w.reparam.subst == RationalFunction(
        Poly(QQ, [Fraction(2), Fraction(0), Fraction(1, 5)])
    )
    cls = BrauerClass.make(Q_BASE, 2, [(3, q_poly(30, -15))])
    report = verify_splitting_witness(cls, w)
    assert report.mode == "full" and report.ok


def test_witness_not_bare_symbol():
    w = splitting_witness(Q_BASE, 2, 5, T)
    cls = BrauerClass.make(Q_BASE, 2, [(5, T), (3, 7)])
    report = verify_splitting_witness(cls, w)
    assert report.mode == "full" and report.ok
    assert len(report.checks) == 3
    assert any("bare" in n for n in report.notes)


def test_witness_odd_p_certificates_only():
    t7 = Poly.from_ints(F7.field, [0, 1])
    w = splitting_witness(F7, 3, 3, t7)
    assert w.m == 3 and w.reparam is None
    cls = BrauerClass.make(F7, 3, [(3, t7)])
    report = verify_splitting_witness(cls, w)
    assert report.mode == "certificates-only" and report.ok
    assert any("p = 2" in n for n in report.notes)


def test_witness_input_guards():
    with pytest.raises(ValueError):
        splitting_witness(Q_BASE, 2, 4, T)  # 4 is a square: unramified
    with pytest.raises(ValueError):
        splitting_witness(Q_BASE, 2, 5, q_poly(0, 0, 1))
    with pytest.raises(ValueError):
        splitting_witness(Q_BASE, 2, T, T)
    with pytest.raises(ValueError):
        splitting_witness(Q_BASE, 2, 5, 3)
    with pytest.raises(ValueError):
        splitting_witness(Q_BASE, 2, 0, T)


def test_witness_random_units():
    rng = random.Random(211)
    for _ in range(25):
        a = nonsquare_rational(rng, 30)
        u = nonzero_rational(rng, 20)
        c = rational(rng, 20)
        lin = RationalFunction(Poly(QQ, [-c, QQ.one])) * RationalFunction.constant(
            QQ, u
        )
        w = splitting_witness(Q_BASE, 2, a, lin)
        assert w.basepoint_t == c
        cls = BrauerClass.make(Q_BASE, 2, [(a, lin)])
        report = verify_splitting_witness(cls, w)
        assert report.mode == "full" and report.ok, (a, u, c)


def _witness_or_refusal(base, p, a, lin):
    try:
        return witness_to_obj(splitting_witness(base, p, a, lin))
    except ValueError:
        return "refused"


def test_witness_reads_ramification_off_the_constant_entry(monkeypatch):
    """At t = c the residue of (a, u(t - c)) is a itself, so
    splitting_witness needs no residue: with residue_at refused it gives
    the same witness, and it refuses exactly the a that are p-th powers."""
    rng = random.Random(2903)
    cases = []
    for base, p in ((Q_BASE, 2), (F7, 2), (F7, 3), (F13, 3), (FiniteBase(9), 2)):
        field = base.field
        for _ in range(16):
            if field is QQ:
                a, u, c = nonzero_rational(rng, 12), nonzero_rational(rng, 12), rational(rng, 12)
            else:
                a, u, c = (field.element_at(rng.randrange(lo, field.order)) for lo in (1, 1, 0))
            a = a ** rng.choice((1, 1, p))
            lin = RationalFunction(Poly(field, [-c * u, u]))
            rc = residue_at(BrauerClass.make(base, p, [(a, lin)]), ClosedPoint.rational(base, c))
            assert rc.value == a
            cases.append((base, p, a, lin, _witness_or_refusal(base, p, a, lin)))

    def refuse(*args):
        raise AssertionError("splitting_witness computed a residue")

    monkeypatch.setattr(covers, "residue_at", refuse)
    refused = 0
    for base, p, a, lin, before in cases:
        got = _witness_or_refusal(base, p, a, lin)
        assert got == before
        assert (got == "refused") == is_pth_power(base.field, a, p)
        refused += got == "refused"
    assert 0 < refused < len(cases)


def test_unramified_cover_infinite_pole():
    cls = BrauerClass.make(Q_BASE, 2, [(T, q_poly(-2, 0, 1))])
    w = make_unramified_cover(cls, 1)
    assert w.kind == "unramified" and w.m == 2
    assert w.f == RationalFunction(q_poly(0, -2, 0, 1))  # t(t^2 - 2)
    assert w.fiber_root == Fraction(-1)
    report = unramified_cover_certificates(cls, w)
    assert report.ok
    names = [c.name for c in report.checks]
    assert names.count("eisenstein-valuation") == 2
    assert "basepoint-regular" in names and "fiber-root" in names


def test_unramified_cover_needs_finite_pole_when_infinity_ramifies():
    cls = BrauerClass.make(Q_BASE, 2, [(5, T)])
    with pytest.raises(ValueError):
        make_unramified_cover(cls, 2)
    bpt = ClosedPoint.rational(Q_BASE, 1)
    w = make_unramified_cover(cls, 2, bpt)
    assert w.f == RationalFunction(T, q_poly(1, -2, 1))  # t / (t-1)^2
    report = unramified_cover_certificates(cls, w)
    assert report.ok
    # both ramified points, including infinity, get simple zeros
    from brauercalc.points import valuation_at

    assert valuation_at(w.g, ClosedPoint.infinity(Q_BASE)) == 1


def test_unramified_cover_quadratic_pole_point():
    cls = BrauerClass.make(Q_BASE, 2, [(T, q_poly(-2, 0, 1))])
    bpt = ClosedPoint.finite(Q_BASE, q_poly(1, 0, 1))
    w = make_unramified_cover(cls, 1, bpt)
    report = unramified_cover_certificates(cls, w)
    assert report.ok
    from brauercalc.points import valuation_at

    assert valuation_at(w.f, bpt) < 0
    for pt in ramification_divisor(cls).support():
        assert valuation_at(w.g, pt) == 1


def test_unramified_cover_finite_base():
    t7 = Poly.from_ints(F7.field, [0, 1])
    cls = BrauerClass.make(F7, 3, [(3, t7)])
    bpt = ClosedPoint.rational(F7, 1)
    w = make_unramified_cover(cls, 3, bpt)
    report = unramified_cover_certificates(cls, w)
    assert report.ok



def test_unramified_cover_congruence_search():
    # p = 3, a degree-2 pole point, and deg(prod) + [inf ramified] = 2 + 1
    # odd: the first pole order leaves an auxiliary multiplicity of 1, so
    # the search raises it to 3 and the auxiliary point is no branch point
    t7 = Poly.from_ints(F7.field, [0, 1])
    cls = BrauerClass.make(F7, 3, [(3, t7 * t7 - t7)])
    bpt = ClosedPoint(F7, t7 * t7 + 1)
    w = make_unramified_cover(cls, 2, bpt)
    assert unramified_cover_certificates(cls, w).ok
    assert valuation_at(w.f, bpt) == -3
    # t, t - 1 and the auxiliary factor (t - e)^3
    assert sorted(e for _, e in factor_poly(w.f.num)) == [1, 1, 3]
    assert valuation_at(w.g, ClosedPoint.infinity(F7)) == 1


def test_unramified_cover_finds_auxiliary_point_over_non_prime_field():
    # over F_9 the support, the basepoint g^2 and the pole point leave four
    # free rational points for the auxiliary zero; none is in the prime field
    base = FiniteBase(9)
    f = base.field
    t9 = Poly.from_ints(f, [0, 1])
    one = Poly.one(f)
    g = multiplicative_generator(f)
    entry = RationalFunction(t9 * (t9 - one) * (t9 - one * 2), t9 - one * g)
    cls = BrauerClass.make(base, 2, [(g, entry)])
    tails = itertools.product(f.elements(), repeat=3)
    cubic = next(pi for pi in (Poly(f, [*c, f.one]) for c in tails) if is_irreducible(pi))
    w = make_unramified_cover(cls, g**2, ClosedPoint(base, cubic))
    assert unramified_cover_certificates(cls, w).ok


def test_unramified_cover_rejects_bad_points():
    cls = BrauerClass.make(Q_BASE, 2, [(T, q_poly(-2, 0, 1))])
    with pytest.raises(ValueError):
        make_unramified_cover(cls, 0)  # basepoint inside the locus
    with pytest.raises(ValueError):
        make_unramified_cover(cls, 1, ClosedPoint.finite(Q_BASE, q_poly(-2, 0, 1)))
    with pytest.raises(ValueError):
        make_unramified_cover(cls, 1, ClosedPoint.rational(Q_BASE, 1))


def test_pullback_substitutes_entries():
    cls = BrauerClass.make(Q_BASE, 2, [(T, T)])
    rep = Reparametrization(RationalFunction(q_poly(0, 0, 1)))
    pulled = pullback_class(cls, rep)
    sq = RationalFunction.coerce(QQ, q_poly(0, 0, 1))
    assert pulled.pairs() == ((sq, sq),)


def test_datum_guards():
    t7 = Poly.from_ints(F7.field, [0, 1])
    with pytest.raises(ValueError):
        KummerCoverDatum(
            kind="unramified",
            base=F7,
            m=7,
            g=RationalFunction.coerce(F7.field, t7),
            basepoint_t=F7.field.zero,
            fiber_root=F7.field.zero,
        )
    with pytest.raises(ValueError):
        Reparametrization(RationalFunction.constant(QQ, Fraction(2)))
