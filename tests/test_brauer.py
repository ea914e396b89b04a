"""Symbol sums: residues, ramification divisors, reciprocity, equality."""

import itertools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from brauercalc import brauer, factoring, hilbert, points
from brauercalc.brauer import (
    BrauerClass,
    classes_equal,
    compare_classes,
    constant_is_trivial,
    is_symbol_regular,
    ramification_divisor,
    ramification_points,
    reciprocity_check,
    residue_at,
    specialize,
)
from brauercalc.cli import main
from brauercalc.distinguish import BY_SPECIALIZATION, EQUAL, distinguish
from brauercalc.errors import NotSymbolRegular, ScopeError
from brauercalc.factoring import is_irreducible
from brauercalc.fields import QuotientField, multiplicative_generator
from brauercalc.hilbert import invariant_set
from brauercalc.points import (
    ClosedPoint,
    FiniteBase,
    Q_BASE,
    reduce_at,
    residue_field,
    tame_symbol_at,
    unit_part_at,
    valuation_at,
)
from brauercalc.parser import class_text, parse_class, ratfunc_text
from brauercalc.poly import Poly, QQ, RationalFunction, _ListRing
from brauercalc.residues import is_pth_power

from _gen import F7, F13, random_class, random_entry, random_poly, rational
from _oracles import (
    candidate_points,
    classes_equal_oracle,
    compare_by_difference,
    divisor_oracle,
    poly_strip,
    regular_rational_points,
    residue_value_oracle,
)

T = Poly.from_ints(QQ, [0, 1])


def q_poly(*coeffs):
    """Ascending integer coefficients over Q."""
    return Poly.from_ints(QQ, list(coeffs))


def canon(cls_):
    return {x: rc.canonical_value() for x, rc in ramification_divisor(cls_).entries}


def test_divisor_constant_times_t():
    c = BrauerClass.make(Q_BASE, 2, [(5, T)])
    inf = ClosedPoint.infinity(Q_BASE)
    zero_pt = ClosedPoint.finite(Q_BASE, T)
    assert canon(c) == {zero_pt: Fraction(5), inf: Fraction(5)}
    assert reciprocity_check(c)


def test_divisor_t_t():
    c = BrauerClass.make(Q_BASE, 2, [(T, T)])
    inf = ClosedPoint.infinity(Q_BASE)
    zero_pt = ClosedPoint.finite(Q_BASE, T)
    assert canon(c) == {zero_pt: Fraction(-1), inf: Fraction(-1)}


def test_divisor_with_quadratic_point():
    c = BrauerClass.make(Q_BASE, 2, [(T, q_poly(-2, 0, 1))])
    quad = ClosedPoint.finite(Q_BASE, q_poly(-2, 0, 1))
    zero_pt = ClosedPoint.finite(Q_BASE, T)
    div = ramification_divisor(c)
    assert set(div.support()) == {zero_pt, quad}
    res = dict(div.entries)
    assert res[zero_pt].canonical_value() == Fraction(-2)
    # at t^2 - 2 the residue is the image of t, a square root of 2
    theta = residue_field(quad).gen_elem()
    assert res[quad].value == theta
    assert not res[quad].is_trivial()
    assert reciprocity_check(c)


def test_steinberg_class_is_zero():
    c = BrauerClass.make(Q_BASE, 2, [(T, q_poly(1, -1))])
    assert not ramification_divisor(c).entries
    assert classes_equal(c, BrauerClass.zero(Q_BASE, 2))


def test_ramification_points_cover_entry_factors():
    c = BrauerClass.make(Q_BASE, 2, [(q_poly(-1, 0, 1), T)])
    pts = ramification_points(c)
    polys = {x.poly for x in pts if not x.is_infinity}
    assert ClosedPoint.infinity(Q_BASE) in pts
    assert polys == {q_poly(-1, 1), q_poly(1, 1), T}
    assert set(ramification_divisor(c).support()) <= set(pts)


def test_symbols_sharing_an_entry_factor_share_its_point():
    """Two symbols whose entries share the factor t - 3/2 (numerators of
    different integer forms, one as a pole) hold one ClosedPoint object
    for it, and every symbol holds the one infinity of its base; the same
    over F_7 with the factor t - 2.  Their points are the oracle's."""
    lin = q_poly(-3, 2)
    s1, s2 = BrauerClass.make(Q_BASE, 2, [
        (lin * q_poly(1, 1), 3), (q_poly(-5, 1) * 7, RationalFunction(q_poly(1, 0, 1), lin * lin))
    ]).symbols
    t7 = Poly.from_ints(F7.field, [0, 1])
    r1, r2 = BrauerClass.make(F7, 3, [(t7 - 2, t7), (t7**2 + 1, (t7 - 2) * (t7 + 1))]).symbols
    for (a, b), base, p, root in (((s1, s2), Q_BASE, 2, lin.monic()), ((r1, r2), F7, 3, t7 - 2)):
        pa, pb = brauer._symbol_points(a, base), brauer._symbol_points(b, base)
        (xa,), (xb,) = ([x for x in pts if x.poly == root] for pts in (pa, pb))
        assert xa is xb
        inf = ClosedPoint.infinity(base)
        assert all(any(x is inf for x in pts) for pts in (pa, pb))
        cls_ = BrauerClass(base, p, (a, b))
        assert ramification_points(cls_) == candidate_points(cls_)


def test_the_factor_cache_answers_a_repeated_entry():
    """t^2 - 4 and 2t^2 - 8, entries of two classes parsed apart, share
    the primitive integer form t^2 - 4: it is factored once, the second
    class reads the factor cache, and both hold the one point t - 2."""
    classes = [parse_class(f"({e}, 3)", Q_BASE, 2) for e in ("t^2-4", "2*t^2-8")]
    pts = [ramification_points(c) for c in classes]
    info = factoring._factor_q_monic.cache_info()
    assert info.misses == 1 and info.hits >= 1
    (x1,), (x2,) = ([x for x in ps if x.poly == q_poly(-2, 1)] for ps in pts)
    assert x1 is x2


def test_every_point_is_the_shared_one(monkeypatch):
    """ClosedPoint.rational over Q and F_7, ClosedPoint.finite and the
    point brauer._values_at sweeps are the point zero_points holds for
    the factor, each built from a different polynomial."""
    t7 = Poly.from_ints(F7.field, [0, 1])
    for base, c, f in (
        (Q_BASE, 0, T * 5),
        (Q_BASE, Fraction(3, 2), q_poly(-3, 2)),
        (Q_BASE, -4, q_poly(-8, -2)),
        (F7, 0, t7 * 3),
        (F7, 5, t7 * 2 + 4),
    ):
        (x,) = points.zero_points(base, f)
        assert ClosedPoint.rational(base, c) is x
    (x,) = points.zero_points(Q_BASE, q_poly(1, 0, 1))
    assert ClosedPoint.finite(Q_BASE, q_poly(2, 0, 2)) is x

    swept, real = [], brauer.unit_part_at
    monkeypatch.setattr(brauer, "unit_part_at", lambda h, at: swept.append(at) or real(h, at))
    specialize(BrauerClass.make(Q_BASE, 2, [(T + 1, 3), (T, T - 5)]), Fraction(3, 2))
    (x,) = points.zero_points(Q_BASE, q_poly(-6, 4))
    assert len(swept) == 4 and all(at is x for at in swept)


def test_residue_is_multiplicative():
    rng = random.Random(101)
    for base, p in ((Q_BASE, 2), (F7, 2), (F7, 3)):
        for _ in range(10):
            c1 = random_class(rng, base, p, 2, 3, height=9)
            c2 = random_class(rng, base, p, 2, 3, height=9)
            for x in ramification_points(c1 + c2):
                r12 = residue_at(c1 + c2, x)
                r1, r2 = residue_at(c1, x), residue_at(c2, x)
                assert r12.value == r1.value * r2.value


def test_residue_respects_scaling():
    rng = random.Random(103)
    for base, p in ((F7, 3), (F13, 3), (Q_BASE, 2)):
        for _ in range(8):
            c = random_class(rng, base, p, 2, 3, height=9)
            k = rng.randrange(1, p)
            for x in ramification_points(c):
                assert residue_at(c.scale(k), x).value == residue_at(c, x).value ** k


def test_reciprocity_random_classes():
    rng = random.Random(107)
    for base, p in ((Q_BASE, 2), (F7, 2), (F7, 3), (F13, 3)):
        for _ in range(15):
            c = random_class(rng, base, p, 3, 3, height=12)
            assert reciprocity_check(c)


def test_equal_frozen_cases():
    z = BrauerClass.zero(Q_BASE, 2)
    doubled = BrauerClass.make(Q_BASE, 2, [(T, -1), (T, -1)])
    assert classes_equal(doubled, z)
    five = BrauerClass.make(Q_BASE, 2, [(5, T)])
    three = BrauerClass.make(Q_BASE, 2, [(3, T)])
    assert not classes_equal(five, three)
    assert not classes_equal(BrauerClass.make(Q_BASE, 2, [(T, q_poly(-2, 0, 1))]), z)


def test_equal_frozen_finite():
    f = F7.field
    t7 = Poly.from_ints(f, [0, 1])
    a = BrauerClass.make(F7, 2, [(3, t7)])
    b = BrauerClass.make(F7, 2, [(Poly.from_ints(f, [0, 0, 3]), t7)])
    assert classes_equal(a, b)
    assert not classes_equal(a, BrauerClass.zero(F7, 2))


def test_equal_matches_reference():
    rng = random.Random(109)
    for base, p in ((Q_BASE, 2), (F7, 2)):
        for _ in range(18):
            a = random_class(rng, base, p, 2, 2, height=8)
            kind = rng.randrange(3)
            if kind == 0:
                b = a
            elif kind == 1:
                s = random_class(rng, base, p, 1, 2, height=8)
                b = a + s + s
            else:
                b = a + random_class(rng, base, p, 1, 2, height=8)
            expected = classes_equal_oracle(a, b)
            assert classes_equal(a, b) == expected
            if kind in (0, 1):
                assert expected


def test_compare_classes_matches_difference_divisor():
    """The first mismatch is the first point of the divisor of a - b, with
    its residue, and the net class ramifies where a - b does; equality
    agrees with the oracle."""
    rng = random.Random(131)
    for base, p in ((Q_BASE, 2), (F7, 3), (FiniteBase(9), 2)):
        height = 8 if not base.is_finite else 50
        for k in range(12):
            a = random_class(rng, base, p, 2, 2, height=height)
            s = random_class(rng, base, p, 1, 2, height=height)
            if k % 3 == 0:
                b = a + s + s.scale(p - 1)
            elif k % 3 == 1:
                # over Q a nonsplit constant; over F_q a trivial one
                b = a + BrauerClass.make(base, p, [(-1, -1)])
            else:
                b = a + s
            cmp = compare_classes(a, b)
            div = ramification_divisor(a - b)
            assert ramification_divisor(cmp.net).support() == div.support()
            if not div.entries:
                assert cmp.point is None and cmp.residue is None
            else:
                x, rc = div.entries[0]
                assert cmp.point == x and not cmp.equal
                assert is_pth_power(rc.field, cmp.residue.value / rc.value, p)
            assert cmp.equal == classes_equal_oracle(a, b)
            if base.is_finite or cmp.point is not None:
                assert cmp.at is None and cmp.left_pairs is cmp.right_pairs is None
            else:
                assert cmp.left_pairs == specialize(a, cmp.at)
                assert cmp.right_pairs == specialize(b, cmp.at)


def test_difference_with_self_vanishes():
    rng = random.Random(113)
    for base, p in ((Q_BASE, 2), (F7, 3)):
        for _ in range(6):
            a = random_class(rng, base, p, 2, 2, height=7)
            assert classes_equal(a - a, BrauerClass.zero(base, p))
            assert a.scale(p).symbols == ()
            assert classes_equal(a.scale(1), a)


def test_specialize_and_regular_points():
    c = BrauerClass.make(Q_BASE, 2, [(T, q_poly(1, -1))])
    with pytest.raises(NotSymbolRegular):
        specialize(c, 0)
    with pytest.raises(NotSymbolRegular):
        specialize(c, 1)
    assert specialize(c, -1) == ((Fraction(-1), Fraction(2)),)
    assert not is_symbol_regular(c, 0)
    assert list(itertools.islice(regular_rational_points(c), 3)) == [-1, 2, -2]
    cc = BrauerClass.make(Q_BASE, 2, [(T, T)])
    assert list(itertools.islice(regular_rational_points(cc), 3)) == [1, -1, 2]



def test_specialize_and_regular_points_over_finite_field():
    f = F7.field
    t7 = Poly.from_ints(f, [0, 1])
    c = BrauerClass.make(F7, 2, [(t7, t7 - Poly.one(f))])
    with pytest.raises(NotSymbolRegular):
        specialize(c, 1)
    assert specialize(c, 3) == ((f.from_int(3), f.from_int(2)),)
    assert list(itertools.islice(regular_rational_points(c), 2)) == [2, 3]
    # the sweep over F_7 ends after its seven elements
    assert list(itertools.islice(regular_rational_points(c), 10)) == [2, 3, 4, 5, 6]
    every = BrauerClass.make(F7, 2, [(3, t7**7 - t7)])
    assert list(itertools.islice(regular_rational_points(every), 1)) == []


def test_regular_points_over_non_prime_field_are_distinct():
    # over F_9 the sweep visits all nine elements, not 0, 1, 2 three times
    base = FiniteBase(9)
    f = base.field
    t9 = Poly.from_ints(f, [0, 1])
    c = BrauerClass.make(base, 2, [(t9, t9 + Poly.one(f))])
    got = list(itertools.islice(regular_rational_points(c), 9))
    assert got == [e for e in f.elements() if e != f.zero and e != -f.one]
    assert len(set(got)) == 7


def test_constant_triviality():
    assert constant_is_trivial(F7, [(F7.field.from_int(3), F7.field.from_int(5))], 2)
    assert constant_is_trivial(Q_BASE, [(Fraction(-1), Fraction(2))], 2)
    assert not constant_is_trivial(Q_BASE, [(Fraction(-1), Fraction(-1))], 2)
    with pytest.raises(ScopeError):
        constant_is_trivial(Q_BASE, [(Fraction(2), Fraction(3))], 3)
    with pytest.raises(ValueError):
        constant_is_trivial(Q_BASE, [(Fraction(0), Fraction(3))], 2)


def test_divisor_agreement_up_to_squares():
    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    b = BrauerClass.make(Q_BASE, 2, [(20, T)])
    c = BrauerClass.make(Q_BASE, 2, [(3, T)])
    assert classes_equal(a, b)
    assert not classes_equal(a, c)
    assert not classes_equal(a, BrauerClass.zero(Q_BASE, 2))


def test_construction_guards():
    with pytest.raises(ValueError):
        BrauerClass.make(Q_BASE, 2, [(0, T)])
    with pytest.raises(ScopeError):
        BrauerClass.make(Q_BASE, 3, [(2, T)])
    with pytest.raises(ScopeError):
        BrauerClass.make(F7, 5, [(3, 2)])
    with pytest.raises(TypeError):
        RationalFunction.coerce(F7.field, T)
    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    with pytest.raises(ValueError):
        a + BrauerClass.zero(F7, 2)
    with pytest.raises(ValueError):
        residue_at(a, ClosedPoint.rational(F7, 0))


def test_negation_inverts_second_entry():
    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    (pair,) = (-a).pairs()
    assert pair[0] == RationalFunction.coerce(QQ, 5)
    assert pair[1] == RationalFunction.coerce(QQ, T).inverse()


def _first_point(base, degree):
    """The first monic irreducible of the given degree, by coefficient order."""
    field = base.field
    if base.is_finite:
        elems = list(field.elements())
    else:
        elems = [field.from_int(n) for n in (1, 2, 3)]
    for tail in itertools.product(elems, repeat=degree):
        try:
            return ClosedPoint.finite(base, Poly(field, list(tail) + [field.one]))
        except ValueError:
            continue
    raise LookupError(f"no irreducible of degree {degree} over {base!r}")


def test_reduce_at_zero_and_pole():
    t7 = Poly.from_ints(F7.field, [0, 1])
    quad = q_poly(-2, 0, 1)
    zeros = [
        (ClosedPoint.infinity(Q_BASE), RationalFunction(q_poly(1), T)),
        (ClosedPoint.rational(Q_BASE, 1), RationalFunction(q_poly(-3, 2, 1))),
        (ClosedPoint.finite(Q_BASE, quad), RationalFunction(quad)),
        (ClosedPoint.rational(F7, 4), RationalFunction(t7 + 3)),
        (ClosedPoint.finite(F7, t7**2 + 1), RationalFunction((t7**2 + 1) * (t7 + 3))),
    ]
    for x, h in zeros:
        assert reduce_at(h, x) == residue_field(x).zero
        with pytest.raises(ZeroDivisionError):
            reduce_at(h.inverse(), x)
        with pytest.raises(ValueError):  # no valuation, so no reduction
            reduce_at(h * 0, x)


def _valuation_by_degrees(h, x):
    """Degrees at infinity, powers of pi stripped off at a finite point."""
    if x.is_infinity:
        return h.den.degree - h.num.degree
    return poly_strip(h.num, x.poly)[0] - poly_strip(h.den, x.poly)[0]


def _reduce_by_evaluation(h, x):
    """h in kappa(x) for a unit h at x: leading coefficients at infinity,
    the value at t = c at a point t - c, numerator over denominator in
    k[t]/(pi) at a point of degree 2 or more."""
    if x.is_infinity:
        return h.num.lc / h.den.lc
    if x.degree == 1:
        return h.evaluate(-x.poly.coeff(0))
    kappa = residue_field(x)
    return kappa.from_poly(h.num) / kappa.from_poly(h.den)


def _residue_by_full_quotient(cls_, x):
    """The defining formula, (-1)^(va vb) * a^vb / b^va reduced at x."""
    acc = residue_field(x).one
    for s in cls_.symbols:
        va, vb = _valuation_by_degrees(s.a, x), _valuation_by_degrees(s.b, x)
        if va == 0 and vb == 0:
            continue
        val = _reduce_by_evaluation(s.a**vb / s.b**va, x)
        acc = acc * (-val if (va * vb) % 2 else val)
    return acc


def test_residue_at_matches_full_quotient():
    rng = random.Random(127)
    for base, p in ((Q_BASE, 2), (F7, 3), (FiniteBase(9), 2)):
        finite = [_first_point(base, d) for d in (1, 2, 3)]
        points = [ClosedPoint.infinity(base)] + finite
        ramified = set()

        def entry():
            """A random unit times a power of one of the fixed points."""
            pi = RationalFunction(rng.choice(finite).poly)
            unit = random_entry(rng, base.field, 1, height=9)
            return unit * pi ** rng.choice((-2, -1, 1, 2))

        for _ in range(8):
            pairs = [(entry(), entry()) for _ in range(rng.randint(1, 3))]
            c = BrauerClass.make(base, p, pairs)
            for x in points:
                assert residue_at(c, x).value == _residue_by_full_quotient(c, x)
                for h in (e for pair in pairs for e in pair):
                    v = _valuation_by_degrees(h, x)
                    assert v == valuation_at(h, x)
                    if v:
                        ramified.add(x)
        assert ramified == set(points)


RATIONAL_POINTS = [Fraction(v) for v in (0, 3, -2, "1/2", "-5/2", "2/3", "-7/3")]


def _rational_entry(rng, c):
    """A random function times (t - c)^k, k in [-3, 3], with fractional
    coefficients; the random factors may vanish at c as well."""

    def poly(deg):
        while True:
            f = Poly(QQ, [rational(rng, 9) for _ in range(deg + 1)])
            if not f.is_zero:
                return f

    lin = RationalFunction(Poly(QQ, [-c, Fraction(1)]))
    k = rng.randint(-3, 3)
    h = RationalFunction(poly(rng.randint(0, 3)), poly(rng.randint(0, 2)))
    return h * lin**k


def _unit_part_by_strip(h, x):
    """(v, u) by Poly division: pi stripped off, then the cofactors'
    quotient at a rational point or in k[t]/(pi); degrees and leading
    coefficients at infinity."""
    if x.is_infinity:
        return h.den.degree - h.num.degree, h.num.lc / h.den.lc
    vn, rn = poly_strip(h.num, x.poly)
    vd, rd = poly_strip(h.den, x.poly)
    if x.degree == 1:
        return vn - vd, rn.coeff(0) / rd.coeff(0)
    kappa = residue_field(x)
    return vn - vd, kappa.from_poly(rn) / kappa.from_poly(rd)


def test_unit_part_at_rational_points_matches_division():
    rng = random.Random(131)
    seen = set()
    for c in RATIONAL_POINTS:
        x = ClosedPoint.rational(Q_BASE, c)
        for _ in range(60):
            h = _rational_entry(rng, c)
            v, u = unit_part_at(h, x)
            assert (v, u) == _unit_part_by_strip(h, x)
            assert valuation_at(h, x) == v
            seen.add(v)
    assert seen >= set(range(-3, 4))


def _unit_part_by_strip_route(h, x):
    """unit_part_at's strip and combine, called directly."""
    sides = points._strip((h.num, h.den), x)
    return sides[0][0] - sides[1][0], points._combine(x, sides, (1, -1), 1)


def test_unit_part_at_rational_points_with_non_monic_entries_matches_division():
    """At t = c over Q, with and without a denominator, entries whose
    numerators are not monic and whose integer forms have content other
    than 1 match the division oracle where they are regular, where they
    vanish and where they have a pole; a regular one gives its value, and
    every one a Fraction, the one that strip and combine give."""
    rng = random.Random(137)
    kinds = Counter()
    for c in RATIONAL_POINTS:
        x = ClosedPoint.rational(Q_BASE, c)
        for _ in range(40):
            h = _rational_entry(rng, c) * Fraction(rng.choice([1, 2, -3]), rng.choice([1, 5]))
            v, u = unit_part_at(h, x)
            assert (v, u) == _unit_part_by_strip(h, x), (c, h)
            assert (v, u) == _unit_part_by_strip_route(h, x) and type(u) is Fraction
            if not v:
                assert u == h.evaluate(c)
            odd = h.num.lc != 1 and h.num.int_form()[0] != 1
            kinds["pole" if v < 0 else "zero" if v else "regular", c.denominator > 1, odd] += 1
    for route in ("regular", "zero", "pole"):
        assert kinds[route, True, True] >= 5 and kinds[route, False, True] >= 5, kinds


def test_rational_points_over_q_need_no_residue_field(monkeypatch):
    """At t = c over Q, unit_part_at and tame_symbol_at never ask for
    kappa(x): with points.residue_field refused they still match the
    division oracle, where the entries are regular, vanish or have a pole,
    on non-monic entries and at points with a denominator."""
    rng = random.Random(143)
    cases, kinds = [], Counter()
    for c in RATIONAL_POINTS:
        x = ClosedPoint.rational(Q_BASE, c)
        for _ in range(30):
            a, b = (_rational_entry(rng, c) * Fraction(rng.choice([1, 2, -3]), rng.choice([1, 5]))
                    for _ in "ab")
            cases.append((a, b, x, _unit_part_by_strip(a, x), _tame_by_strip(a, b, x)))
            va = cases[-1][3][0]
            odd = a.num.lc != 1 and a.num.int_form()[0] != 1
            kinds["pole" if va < 0 else "zero" if va else "regular", c.denominator > 1, odd] += 1
    for route in ("regular", "zero", "pole"):
        assert kinds[route, True, True] >= 5 and kinds[route, False, True] >= 5, kinds

    def refuse(*args):
        raise AssertionError("asked for kappa(x) at a rational point over Q")

    monkeypatch.setattr(points, "residue_field", refuse)
    for a, b, x, unit, tame in cases:
        assert unit_part_at(a, x) == unit, (x, a)
        assert tame_symbol_at(a, b, x) == tame, (x, a, b)


def test_symbol_hash_is_kept_after_the_first(monkeypatch):
    """A second hash() of one symbol hashes neither entry again, and equal
    symbols still hash alike."""
    calls = []
    real = RationalFunction.__hash__

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(RationalFunction, "__hash__", counted)
    s = BrauerClass.make(Q_BASE, 2, [(T + 1, T * T - 3)]).symbols[0]
    first = hash(s)
    assert len(calls) == 2
    assert hash(s) == first and len(calls) == 2
    twin = BrauerClass.make(Q_BASE, 2, [(T + 1, T * T - 3)]).symbols[0]
    assert twin == s and hash(twin) == first and len({s, twin}) == 1


def test_unit_part_at_prime_field_points_matches_division():
    # the integer-representative route at F_p points of degree 1 to 3,
    # against Poly division and the residue field's own reduction
    rng = random.Random(133)
    for base in (F7, F13, FiniteBase(2)):
        field = base.field
        for d in (1, 2, 3):
            points = 0
            while points < 3:
                pi = random_poly(rng, field, d, min_degree=d, monic=True)
                if not is_irreducible(pi):
                    continue
                x = ClosedPoint.finite(base, pi)
                points += 1
                for _ in range(15):
                    k = rng.randint(-3, 3)
                    h = random_entry(rng, field, 4) * RationalFunction(pi) ** k
                    v, u = unit_part_at(h, x)
                    assert (v, u) == _unit_part_by_strip(h, x), (base, pi, h)
                    assert u.field is residue_field(x) and u
    x = ClosedPoint.finite(F13, Poly(F13.field, [1, 1]))
    with pytest.raises(TypeError):
        unit_part_at(Poly(F7.field, [3, 1]), x)


def _tame_by_strip(a, b, x):
    """(-1)^(va vb) ua^vb / ub^va from the oracle's unit parts, or None."""
    (va, ua), (vb, ub) = _unit_part_by_strip(a, x), _unit_part_by_strip(b, x)
    if not (va or vb):
        return None
    val = ua**vb / ub**va
    return -val if (va * vb) % 2 else val


def _strip_points(rng):
    """Points of degree 1 to 3 over F_7 and F_13 and of degree 1 and 2 over
    F_9, two of each, and infinity over Q, F_7 and F_9."""
    F9 = FiniteBase(9)
    out = [ClosedPoint.infinity(base) for base in (Q_BASE, F7, F9)]
    for base, degrees in ((F7, (1, 2, 3)), (F13, (1, 2, 3)), (F9, (1, 2))):
        for d in degrees:
            found = []
            while len(found) < 2:
                pi = random_poly(rng, base.field, d, min_degree=d, monic=True)
                if is_irreducible(pi) and ClosedPoint(base, pi) not in found:
                    found.append(ClosedPoint(base, pi))
            out += found
    return out


def test_one_strip_and_combine_match_the_strip_oracle():
    """tame_symbol_at and unit_part_at at finite points over F_p and F_9
    and at infinity, against the Poly-division oracle; at degree-2 points
    also on entries whose sides all leave constant cofactors, so that
    both ends of the combined value are 1."""
    rng = random.Random(151)
    both_ends_one = 0

    def check(a, b, x):
        assert unit_part_at(a, x) == _unit_part_by_strip(a, x), (x, a)
        value = tame_symbol_at(a, b, x)
        assert value == _tame_by_strip(a, b, x), (x, a, b)
        if value is not None and x.base.is_finite:
            assert value.field is residue_field(x)
        return value

    for x in _strip_points(rng):
        field = x.base.field
        pi = RationalFunction(x.poly if x.poly is not None else Poly.from_ints(field, [0, 1]))
        entries = [random_entry(rng, field, 3, height=9) * pi ** rng.randint(-3, 3)
                   for _ in range(24)]
        for a, b in zip(entries, entries[1:]):
            check(a, b, x)
        if x.degree == 2:
            consts = [RationalFunction.constant(field, random_poly(rng, field, 0).lc)
                      * pi ** rng.choice((-2, -1, 1, 3)) for _ in range(8)]
            for a, b in zip(consts, consts[1:]):
                both_ends_one += check(a, b, x) is not None
    assert both_ends_one == 7 * 6


def test_prime_field_quadratic_tame_symbol_divides_once(monkeypatch):
    """At an F_7 point of degree 2, a tame symbol inverts at most once in
    kappa(x) and never runs the list ring's extended gcd, in either mode."""
    rng = random.Random(153)
    x = ClosedPoint.finite(F7, Poly(F7.field, [1, 0, 1]))
    pi = RationalFunction(x.poly)
    pairs = [tuple(random_entry(rng, F7.field, 4) * pi ** rng.randint(-2, 2) for _ in "ab")
             for _ in range(40)]
    want = [_tame_by_strip(a, b, x) for a, b in pairs]
    inverses, real_inv = [], QuotientField._inv

    def counting_inv(self, rep):
        inverses[-1] += 1
        return real_inv(self, rep)

    def refuse(*args):
        raise AssertionError("an extended gcd at a point over F_p")

    monkeypatch.setattr(QuotientField, "_inv", counting_inv)
    monkeypatch.setattr(_ListRing, "xgcd", refuse)
    for (a, b), value in zip(pairs, want):
        inverses.append(0)
        assert tame_symbol_at(a, b, x) == value
    assert max(inverses) == 1 and inverses.count(1) >= 10


@pytest.mark.parametrize("base", [Q_BASE, F7, FiniteBase(9)], ids=["q", "fq7", "fq9"])
def test_a_zero_entry_has_no_tame_symbol(base):
    """A zero entry has no valuation, so its tame symbol raises ValueError,
    at a rational point, a point of degree 2 and infinity, on either side."""
    F = base.field
    zero, t = RationalFunction(Poly.zero(F)), RationalFunction(Poly.from_ints(F, [0, 1]))
    values = F.elements() if base.is_finite else [F.one]
    quadratic = next(g for g in (Poly(F, [c, F.zero, F.one]) for c in values)
                     if is_irreducible(g))
    for x in (ClosedPoint.rational(base, 1), ClosedPoint.finite(base, quadratic),
              ClosedPoint.infinity(base)):
        for a, b in ((zero, t), (t, zero)):
            with pytest.raises(ValueError):
                tame_symbol_at(a, b, x)


def test_is_symbol_regular_matches_evaluation():
    rng = random.Random(132)
    outcomes = set()
    for _ in range(40):
        roots = rng.sample(RATIONAL_POINTS, 2)
        pairs = [
            (_rational_entry(rng, rng.choice(roots)), _rational_entry(rng, rng.choice(roots)))
            for _ in range(rng.randint(1, 3))
        ]
        cls_ = BrauerClass.make(Q_BASE, 2, pairs)
        for c in RATIONAL_POINTS + [1, -1, 5]:
            want = all(
                f.evaluate(c) != 0
                for s in cls_.symbols
                for e in (s.a, s.b)
                for f in (e.num, e.den)
            )
            assert is_symbol_regular(cls_, c) == want
            outcomes.add(want)
    assert outcomes == {True, False}


def test_rational_q_residues_need_no_polynomial_division(monkeypatch):
    rng = random.Random(133)
    classes = []
    for _ in range(10):
        c = rng.choice(RATIONAL_POINTS)
        pairs = [(_rational_entry(rng, c), _rational_entry(rng, c)) for _ in range(2)]
        classes.append(BrauerClass.make(Q_BASE, 2, pairs))
    points = [ClosedPoint.rational(Q_BASE, c) for c in RATIONAL_POINTS]

    def no_divmod(self, other):
        raise AssertionError("polynomial division at a rational point over Q")

    monkeypatch.setattr(Poly, "__divmod__", no_divmod)
    got = [[residue_at(cls_, x).value for x in points] for cls_ in classes]
    monkeypatch.undo()
    assert got == [[_residue_by_full_quotient(cls_, x) for x in points] for cls_ in classes]


# Points over Q whose primitive integer form P = L * pi has L != 1:
# t^2 + t/3 + 1/2 is 6t^2 + 2t + 3.
NON_MONIC_POINTS = [
    ClosedPoint.finite(Q_BASE, q_poly(*c))
    for c in ((3, 2, 6), (5, 0, 3, 2), (7, 2, 0, 0, 3), (5, 1, 0, 3, 4))
]


def _entry_at(rng, points):
    """A random function with Fraction coefficients times pi^k, k in
    [-3, 3], for each of the given points at once."""

    def poly(deg):
        while True:
            f = Poly(QQ, [rational(rng, 9) for _ in range(deg + 1)])
            if not f.is_zero:
                return f

    h = RationalFunction(poly(rng.randint(0, 2)), poly(rng.randint(0, 1)))
    for x in points:
        h = h * RationalFunction(x.poly) ** rng.randint(-3, 3)
    return h


def test_q_tame_symbols_on_integer_forms_match_full_quotient():
    """Residues and unit parts at Q points of degree 2 to 4 with L != 1
    and at rational points, against the defining formula and the
    poly_strip route, on entries with valuations -3..3 at two points."""
    rng = random.Random(141)
    pts = NON_MONIC_POINTS + [ClosedPoint.rational(Q_BASE, c) for c in RATIONAL_POINTS]
    seen = set()
    for _ in range(40):
        two = rng.sample(pts, 2)
        pairs = [(_entry_at(rng, two), _entry_at(rng, two)) for _ in range(rng.randint(1, 2))]
        c = BrauerClass.make(Q_BASE, 2, pairs)
        for x in two:
            assert residue_at(c, x).value == _residue_by_full_quotient(c, x), (c, x)
            for s in c.symbols:
                va, ua = unit_part_at(s.a, x)
                vb, ub = unit_part_at(s.b, x)
                assert (va, ua) == _unit_part_by_strip(s.a, x)
                assert (vb, ub) == _unit_part_by_strip(s.b, x)
                seen.add((x.degree, va * vb % 2, (va > 0) - (va < 0)))
    assert seen >= {(d, odd, sign) for d in (1, 2, 3, 4) for odd in (0, 1) for sign in (-1, 1)}


def test_q_reports_need_no_poly_strip_at_quadratic_and_cubic_points(monkeypatch, capsys):
    """ram and equal reports over Q with quadratic and cubic points are the
    same with the strip's finite-field division and from_poly made to raise."""
    rng = random.Random(143)
    quadratic = [ClosedPoint.finite(Q_BASE, q_poly(1, 0, 1)), NON_MONIC_POINTS[0]]
    cubic = [ClosedPoint.finite(Q_BASE, q_poly(-2, 0, 0, 1)), NON_MONIC_POINTS[1]]
    classes = []
    for _ in range(6):
        at = [rng.choice(quadratic), rng.choice(cubic)]
        pairs = [(_entry_at(rng, at), _entry_at(rng, at)) for _ in range(rng.randint(1, 2))]
        classes.append(BrauerClass.make(Q_BASE, 2, pairs))
    texts = [class_text(c) for c in classes]

    def reports():
        for left, right in zip(texts, texts[1:] + texts[:1]):
            assert main(["ram", left]) == 0
            assert main(["equal", left, right]) == 0
        return capsys.readouterr().out

    def refuse(*args):
        raise AssertionError("a finite-field division or from_poly at a point over Q")

    real_divmod = _ListRing.divmod

    def field_division(R, a, b):
        # kappa's own arithmetic over Q divides in QQ's list ring; the strip never does
        if R.q or sys._getframe(1).f_code is points._strip.__code__:
            refuse()
        return real_divmod(R, a, b)

    want = reports()
    assert "degree: 2" in want and "degree: 3" in want
    monkeypatch.setattr(_ListRing, "divmod", field_division)
    monkeypatch.setattr(QuotientField, "from_poly", refuse)
    assert reports() == want


def _divisor_values(cls_):
    return tuple((x, rc.value) for x, rc in ramification_divisor(cls_).entries)


def test_residues_match_whole_class_loop():
    """residue_at and ramification_divisor against the loop over every
    symbol, on classes sharing symbol objects or repeating symbols, with
    degree-2 points, and at points off the support before and after the
    symbols know their zeros and poles."""
    rng = random.Random(137)
    quadratic = outside = 0
    for base, p in ((Q_BASE, 2), (F7, 3), (F7, 2), (FiniteBase(9), 2)):
        height = 8 if not base.is_finite else 50
        fixed = [ClosedPoint.infinity(base)] + [_first_point(base, d) for d in (1, 2)]
        pi = RationalFunction(fixed[2].poly)
        for _ in range(6):
            a = random_class(rng, base, p, 2, 2, height=height)
            unit = random_entry(rng, base.field, 1, height)
            extra = (pi * unit, random_entry(rng, base.field, 1, height))
            s = random_class(rng, base, p, 2, 2, height=height) + BrauerClass.make(base, p, [extra])
            for c in (a, a + s + s):
                cands = candidate_points(c)
                off = [x for x in fixed if x not in cands]
                before = [residue_at(c, x).value for x in off]
                assert _divisor_values(c) == divisor_oracle(c)
                for x in cands + off:
                    assert residue_at(c, x).value == residue_value_oracle(c, x)
                assert before == [residue_at(c, x).value for x in off]
                quadratic += any(x.degree == 2 for x in ramification_divisor(c).support())
                outside += len(off)
    assert quadratic >= 12 and outside >= 50


def test_shared_symbols_are_expanded_once(monkeypatch):
    """After a's divisor, the divisor of a + s + s expands only s's
    entries, once at each point of that symbol's own zeros and poles."""
    rng = random.Random(139)
    real = brauer.tame_symbol_at
    for base, p in ((Q_BASE, 2), (F7, 3), (FiniteBase(9), 2)):
        for _ in range(4):
            a = random_class(rng, base, p, 2, 2, height=8)
            s = random_class(rng, base, p, 2, 2, height=8)
            ramification_divisor(a)
            calls = Counter()

            def counting(a, b, x):
                calls.update([(id(a), x), (id(b), x)])
                return real(a, b, x)

            monkeypatch.setattr(brauer, "tame_symbol_at", counting)
            div = ramification_divisor(a + s + s)
            monkeypatch.undo()
            want = Counter(
                (id(e), x)
                for sym in s.symbols
                for x in candidate_points(BrauerClass(base, p, (sym,)))
                for e in (sym.a, sym.b)
            )
            assert calls == want
            assert tuple((x, rc.value) for x, rc in div.entries) == divisor_oracle(a + s + s)


def test_compare_classes_never_builds_the_difference(monkeypatch):
    """The record read off the two classes equals the one read off c1 - c2."""
    rng = random.Random(141)
    cases = []
    for base, p in ((Q_BASE, 2), (F7, 2), (F7, 3), (FiniteBase(9), 2)):
        height = 8 if not base.is_finite else 50
        # not a p-th power, so (pi, w^p) has a trivial residue other than 1
        w = multiplicative_generator(base.field) if base.is_finite else 3
        for k in range(15):
            a = random_class(rng, base, p, 2, 2, height=height)
            s = random_class(rng, base, p, 1, 2, height=height)
            pi = random_entry(rng, base.field, 1, height) * _first_point(base, 1 + k % 2).poly
            b = (
                a + s + s.scale(p - 1),
                a + BrauerClass.make(base, p, [(-1, -1)]),
                a + s,
                random_class(rng, base, p, 2, 2, height=height),
                s + BrauerClass.make(base, p, [(pi, w)]),
            )[k % 5]
            if k % 5 == 4:
                a = s + BrauerClass.make(base, p, [(pi, w**p)])
            cases.append((a, b, compare_by_difference(a, b)))

    def refuse(*args):
        raise AssertionError("compare_classes built c1 - c2")

    monkeypatch.setattr(BrauerClass, "__neg__", refuse)
    monkeypatch.setattr(BrauerClass, "__sub__", refuse)
    kinds = Counter()
    for a, b, old in cases:
        new = compare_classes(a, b)
        assert (new.point, new.at, new.left_pairs, new.right_pairs, new.equal) == (
            old.point, old.at, old.left_pairs, old.right_pairs, old.equal
        )
        assert ramification_divisor(new.net).support() == ramification_divisor(old.net).support()
        if old.point is None:
            assert new.residue is None
            kinds["specialized" if old.at is not None else "equal"] += 1
            continue
        assert new.residue.value == old.residue.value
        kinds["point"] += 1
        for c in (a, b):
            rc = residue_at(c, old.point)
            if rc.is_trivial() and rc.value != 1:
                kinds["trivial residue other than 1"] += 1
    assert min(kinds.values()) >= 3 and len(kinds) == 4


def _symbol_texts(rng, base, p, n):
    """The printed symbols of a random class of at most n symbols."""
    height = 8 if not base.is_finite else 50
    cls_ = random_class(rng, base, p, n, 2, height=height, prime_subfield=True)
    return [class_text(BrauerClass(base, p, (s,))) for s in cls_.symbols]


def test_compare_classes_cancels_equal_symbols_by_value():
    """compare_classes against compare_by_difference on sides parsed
    separately, so equal symbols are equal only by value: the symbols
    reordered, a symbol p times on one side (alone, and beside a
    differing symbol), and a shared symbol with a differing one at a
    shared point."""
    rng = random.Random(261)
    kinds = Counter()
    settings = ((Q_BASE, 2), (F7, 2), (F7, 3), (F13, 2), (F13, 3), (FiniteBase(9), 2))
    for base, p in settings:
        for k in range(12):
            a, t = _symbol_texts(rng, base, p, 2), _symbol_texts(rng, base, p, 2)
            s = _symbol_texts(rng, base, p, 1)
            pi = ("t - 1", "t^2 + 1")[k // 4 % 2]
            u, v, w = (ratfunc_text(random_entry(rng, base.field, 1, 8, True))
                       for _ in range(3))
            left, right = (
                (a + s, (s + a)[::-1]),
                (a, s * p + a),
                (a + t, a + s * p),
                ([f"({u}, {pi})", f"({v}, {pi})"], [f"({w}, {pi})", f"({u}, {pi})"]),
            )[k % 4]
            c1, c2 = (parse_class(" + ".join(side), base, p) for side in (left, right))
            new, old = compare_classes(c1, c2), compare_by_difference(c1, c2)
            assert (new.point, new.at, new.left_pairs, new.right_pairs, new.equal) == (
                old.point, old.at, old.left_pairs, old.right_pairs, old.equal
            )
            net = [x for x, _ in divisor_oracle(new.net)]
            assert net == [x for x, _ in divisor_oracle(c1 - c2)]
            if old.point is None:
                assert new.residue is None
            else:
                assert new.residue.value == old.residue.value
            kinds[k % 4, new.equal] += 1
    assert kinds[0, True] == kinds[1, True] == 18
    assert kinds[2, False] >= 12 and kinds[3, False] >= 12


@pytest.mark.parametrize("base", (Q_BASE, F7), ids=("Q", "F7"))
def test_self_cancelling_sides_build_no_divisor_and_no_tame_symbol(monkeypatch, base):
    """compare_classes(a, a + s + s) at p = 2 cancels every symbol, also
    with b parsed from text: no ramification_divisor and no tame_symbol_at."""
    rng = random.Random(262)
    height = 8 if not base.is_finite else 50
    cases = []
    for _ in range(6):
        a = random_class(rng, base, 2, 2, 2, height=height, prime_subfield=True)
        s = random_class(rng, base, 2, 1, 2, height=height, prime_subfield=True)
        cases += [(a, a + s + s), (a, parse_class(class_text(s + a + s), base, 2))]

    def refuse(*args):
        raise AssertionError("compare_classes read a residue")

    monkeypatch.setattr(brauer, "ramification_divisor", refuse)
    monkeypatch.setattr(brauer, "tame_symbol_at", refuse)
    for a, b in cases:
        assert compare_classes(a, b).equal


def _horner(f, c):
    acc = f.field.zero
    for coeff in reversed(f.coeffs):
        acc = acc * c + coeff
    return acc


def test_specialize_over_q_matches_fraction_evaluation():
    """specialize over Q reads each entry off its integer forms; against
    Fraction Horner on numerator and denominator, at integer and fractional
    values, with zeros and poles placed on some of them."""
    rng = random.Random(151)
    sweep = [Fraction(v) for v in range(-4, 5)] + RATIONAL_POINTS[3:]
    outcomes = Counter()
    for _ in range(25):
        roots = rng.sample(sweep, 2)
        pairs = [
            (_rational_entry(rng, rng.choice(roots)), _rational_entry(rng, rng.choice(roots)))
            for _ in range(rng.randint(1, 3))
        ]
        cls_ = BrauerClass.make(Q_BASE, 2, pairs)
        for c in sweep:
            nd = [(_horner(e.num, c), _horner(e.den, c)) for a, b in pairs for e in (a, b)]
            regular = all(n and d for n, d in nd)
            assert is_symbol_regular(cls_, c) == regular
            if regular:
                vals = [n / d for n, d in nd]
                assert specialize(cls_, c) == tuple(zip(vals[::2], vals[1::2]))
            else:
                with pytest.raises(NotSymbolRegular):
                    specialize(cls_, c)
            outcomes[regular, c.denominator == 1] += 1
    assert min(outcomes.values()) >= 10 and len(outcomes) == 4


def _finite_entry(rng, base, c):
    """A random function over F_q times (t - c)^k, k in [-2, 2]; the
    random factors may vanish at c as well."""
    lin = RationalFunction(Poly(base.field, [-c, base.field.one]))
    return random_entry(rng, base.field, 2) * lin ** rng.randint(-2, 2)


def test_specialize_over_finite_fields_matches_horner():
    """specialize over F_7 and F_9 against Horner on numerator and
    denominator at every field element, with zeros and poles placed on
    some of them."""
    rng = random.Random(153)
    outcomes = Counter()
    for base in (F7, FiniteBase(9)):
        zero, sweep = base.field.zero, list(base.field.elements())
        for _ in range(12):
            roots = rng.sample(sweep, 2)
            pairs = [
                (_finite_entry(rng, base, rng.choice(roots)),
                 _finite_entry(rng, base, rng.choice(roots)))
                for _ in range(rng.randint(1, 3))
            ]
            cls_ = BrauerClass.make(base, 2, pairs)
            for c in sweep:
                nd = [(_horner(e.num, c), _horner(e.den, c)) for a, b in pairs for e in (a, b)]
                regular = all(n != zero and d != zero for n, d in nd)
                assert is_symbol_regular(cls_, c) == regular
                if regular:
                    vals = [n / d for n, d in nd]
                    assert specialize(cls_, c) == tuple(zip(vals[::2], vals[1::2]))
                else:
                    with pytest.raises(NotSymbolRegular):
                        specialize(cls_, c)
                outcomes[base.q, regular] += 1
    assert min(outcomes.values()) >= 10 and len(outcomes) == 4


def test_specialization_after_the_divisor_factors_and_evaluates_nothing(monkeypatch):
    """regular_rational_points and specialize read each entry's valuation
    and unit part at t = c off points.unit_part_at: no factoring and no
    Poly.evaluate, over Q and over F_7.  Specialization reads no point of
    the divisor; computing it first shows that a known divisor changes
    nothing here."""
    rng = random.Random(154)
    for base in (Q_BASE, F7):
        classes = [random_class(rng, base, 2, 3, 2, height=9) for _ in range(8)]
        for cls_ in classes:
            ramification_divisor(cls_)

        def refuse(*args):
            raise AssertionError("factoring or evaluation after the divisor")

        monkeypatch.setattr(brauer, "zero_points", refuse)
        monkeypatch.setattr(Poly, "evaluate", refuse)
        got = [
            [(c, specialize(cls_, c)) for c in itertools.islice(regular_rational_points(cls_), 3)]
            for cls_ in classes
        ]
        monkeypatch.undo()
        want = [
            [(c, tuple((s.a.evaluate(c), s.b.evaluate(c)) for s in cls_.symbols))
             for c in itertools.islice(regular_rational_points(cls_), 3)]
            for cls_ in classes
        ]
        assert got == want and all(got)


def test_specialization_reads_each_entry_once_per_swept_point(monkeypatch):
    """A symbol that occurs more than once, as in a + a + s, has its entries
    read once at each swept c: every point sees each entry at most once,
    and the symbol-regular one sees every entry exactly once, both when
    specializing a + a + s and when reading left_pairs of compare_classes
    sweeps a + (a + s + s)."""
    rng = random.Random(156)
    calls = []
    real = brauer.unit_part_at
    monkeypatch.setattr(brauer, "unit_part_at", lambda h, x: calls.append((id(h), x)) or real(h, x))
    for _ in range(12):
        a = random_class(rng, Q_BASE, 2, 2, 2, height=8)
        s = random_class(rng, Q_BASE, 2, 1, 2, height=8)
        for cls_, run in ((a + a + s, lambda: specialize(a + a + s, at)),
                          (a + a + s + s, lambda: compare_classes(a, a + s + s).left_pairs)):
            entries = {id(e) for sym in cls_.symbols for e in (sym.a, sym.b)}
            at = next(regular_rational_points(cls_))
            calls.clear()
            run()
            per_point = Counter(x for _, x in calls)
            assert len(set(calls)) == len(calls), "an entry read twice at one point"
            assert all(n <= len(entries) for n in per_point.values())
            assert per_point[ClosedPoint.rational(Q_BASE, at)] == len(entries)
            assert {e for e, _ in calls} <= entries


_NONSPLIT = ((-1, -1), (-1, 3), (2, 5), (3, 5), (-1, 7))


def test_compare_classes_places_match_each_half():
    """left_places and right_places are the invariant sets of the two
    specialized halves, and equal agrees with both references."""
    rng = random.Random(152)
    kinds = Counter()
    for k in range(36):
        a = random_class(rng, Q_BASE, 2, 2, 2, height=8)
        s = random_class(rng, Q_BASE, 2, 1, 2, height=8)
        c = BrauerClass.make(Q_BASE, 2, [rng.choice(_NONSPLIT)])
        b = (a + s + s, a + c, a + s)[k % 3]
        if k % 2:
            a = a + BrauerClass.make(Q_BASE, 2, [rng.choice(_NONSPLIT)])
        cmp, old = compare_classes(a, b), compare_by_difference(a, b)
        assert (cmp.equal, cmp.at, cmp.left_pairs, cmp.right_pairs) == (
            old.equal, old.at, old.left_pairs, old.right_pairs
        )
        assert cmp.equal == classes_equal_oracle(a, b)
        if cmp.at is None:
            assert cmp.left_places is None and cmp.right_places is None
            kinds["ramified"] += 1
            continue
        assert cmp.left_places == invariant_set(specialize(a, cmp.at))
        assert cmp.right_places == invariant_set(specialize(b, cmp.at))
        kinds[cmp.equal, bool(cmp.left_places), bool(cmp.right_places)] += 1
    assert kinds[True, True, True] and kinds[False, True, True] and kinds["ramified"]
    assert kinds[False, False, True] + kinds[False, True, False] >= 3


def test_unramified_net_class_factors_no_entry(monkeypatch):
    """Over Q, a vs a + s + s and a vs a + (u, v) with (u, v) a nonsplit
    constant leave a net class with no point to factor; the symbol-regular
    point and the specialized pairs come from the entries' unit parts, so
    compare_classes, classes_equal and distinguish give the same answers
    with factor_poly refusing.  The patched run reads fresh copies of the
    classes, so no zero and pole points remembered from the first run
    stand in for factoring."""
    rng = random.Random(155)
    pairs = []
    for k in range(24):
        a = random_class(rng, Q_BASE, 2, 2, 2, height=8)
        if k % 2:
            b = a + BrauerClass.make(Q_BASE, 2, [rng.choice(_NONSPLIT)])
        else:
            s = random_class(rng, Q_BASE, 2, 1, 2, height=8)
            b = a + s + s
        pairs.append((a, b))

    def answers(a, b):
        cmp = compare_classes(a, b)
        record = (cmp.equal, cmp.point, cmp.at, cmp.left_pairs, cmp.right_pairs,
                  cmp.left_places, cmp.right_places)
        return record, classes_equal(a, b), distinguish(a, b)

    def fresh(cls_):
        return BrauerClass.make(cls_.base, cls_.p, cls_.pairs())

    want = [answers(a, b) for a, b in pairs]

    def refuse(*args):
        raise AssertionError("an entry was factored")

    monkeypatch.setattr(brauer, "zero_points", refuse)
    got = [answers(fresh(a), fresh(b)) for a, b in pairs]
    assert got == want
    assert all(record[1] is None and record[2] is not None for record, _, _ in got)
    assert Counter(v.outcome for _, _, v in got) == {EQUAL: 12, BY_SPECIALIZATION: 12}


def test_compare_classes_checks_reciprocity_on_every_pair(monkeypatch):
    """A Hilbert symbol flipped at 3 breaks reciprocity on each pair with 3
    among its places.  Here two such pairs flip together, so the product
    over the whole difference still satisfies it; the check on each pair
    does not.  The memo of pair sets is cleared after the patch, so each
    pair is evaluated again with the flipped symbol."""
    true_symbol = hilbert.hilbert_symbol

    def flipped(a, b, place):
        s = true_symbol(a, b, place)
        return -s if place == 3 else s

    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    b = a + BrauerClass.make(Q_BASE, 2, [(-1, 3), (3, -1)])
    assert compare_classes(a, b).equal
    monkeypatch.setattr(hilbert, "hilbert_symbol", flipped)
    hilbert._pair_places.cache_clear()
    with pytest.raises(AssertionError, match="reciprocity"):
        compare_classes(a, b)
