"""Symbol sums: residues, ramification divisors, reciprocity, equality."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from brauercalc import brauer, hilbert
from brauercalc.brauer import (
    BrauerClass,
    as_ratfunc,
    classes_equal,
    compare_classes,
    constant_is_trivial,
    is_symbol_regular,
    ramification_divisor,
    ramification_points,
    reciprocity_check,
    regular_rational_points,
    residue_at,
    specialize,
)
from brauercalc.errors import NotSymbolRegular, ScopeError
from brauercalc.factoring import is_irreducible
from brauercalc.fields import multiplicative_generator
from brauercalc.hilbert import invariant_set
from brauercalc.points import (
    ClosedPoint,
    FiniteBase,
    Q_BASE,
    reduce_at,
    residue_field,
    unit_part_at,
    valuation_at,
)
from brauercalc.poly import Poly, QQ, RationalFunction, poly_strip

from _gen import F7, F13, random_class, random_entry, random_poly, rational
from _oracles import (
    candidate_points,
    classes_equal_oracle,
    compare_by_difference,
    divisor_oracle,
    residue_value_oracle,
)

T = Poly.gen(QQ)


def q_poly(*coeffs):
    """Ascending integer coefficients over Q."""
    return Poly.from_ints(QQ, list(coeffs))


def canon(cls_):
    return {x: rc.canonical_value() for x, rc in ramification_divisor(cls_)}


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
    assert div.residue(zero_pt).canonical_value() == Fraction(-2)
    # at t^2 - 2 the residue is the image of t, a square root of 2
    theta = residue_field(quad).gen_elem()
    assert div.residue(quad).value == theta
    assert not div.residue(quad).is_trivial()
    assert reciprocity_check(c)


def test_steinberg_class_is_zero():
    c = BrauerClass.make(Q_BASE, 2, [(T, q_poly(1, -1))])
    assert ramification_divisor(c).is_empty
    assert classes_equal(c, BrauerClass.zero(Q_BASE, 2))


def test_ramification_points_cover_entry_factors():
    c = BrauerClass.make(Q_BASE, 2, [(q_poly(-1, 0, 1), T)])
    pts = ramification_points(c)
    polys = {x.poly for x in pts if not x.is_infinity}
    assert ClosedPoint.infinity(Q_BASE) in pts
    assert polys == {q_poly(-1, 1), q_poly(1, 1), T}
    assert set(ramification_divisor(c).support()) <= set(pts)


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
    t7 = Poly.gen(f)
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
    its residue; equality agrees with the oracle."""
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
            assert cmp.left == ramification_divisor(a)
            assert cmp.right == ramification_divisor(b)
            if div.is_empty:
                assert cmp.point is None and cmp.residue is None
            else:
                x, rc = div.entries[0]
                assert cmp.point == x and not cmp.equal
                assert cmp.residue.same_class(rc)
            assert cmp.equal == classes_equal_oracle(a, b)
            if base.is_finite or cmp.point is not None:
                assert cmp.at is None and cmp.pairs is None
            else:
                assert cmp.pairs == specialize(a - b, cmp.at)


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
    assert regular_rational_points(c, 3) == [-1, 2, -2]
    cc = BrauerClass.make(Q_BASE, 2, [(T, T)])
    assert regular_rational_points(cc, 3) == [1, -1, 2]



def test_specialize_and_regular_points_over_finite_field():
    f = F7.field
    t7 = Poly.gen(f)
    c = BrauerClass.make(F7, 2, [(t7, t7 - Poly.one(f))])
    with pytest.raises(NotSymbolRegular):
        specialize(c, 1)
    assert specialize(c, 3) == ((f.from_int(3), f.from_int(2)),)
    assert regular_rational_points(c, 2) == [2, 3]
    # the sweep over F_7 ends after its seven elements
    assert regular_rational_points(c, 10) == [2, 3, 4, 5, 6]
    every = BrauerClass.make(F7, 2, [(3, t7**7 - t7)])
    assert regular_rational_points(every, 1) == []


def test_regular_points_over_non_prime_field_are_distinct():
    # over F_9 the sweep visits all nine elements, not 0, 1, 2 three times
    base = FiniteBase(9)
    f = base.field
    t9 = Poly.gen(f)
    c = BrauerClass.make(base, 2, [(t9, t9 + Poly.one(f))])
    got = regular_rational_points(c, 9)
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
        as_ratfunc(F7, T)
    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    with pytest.raises(ValueError):
        a + BrauerClass.zero(F7, 2)
    with pytest.raises(ValueError):
        residue_at(a, ClosedPoint.rational(F7, 0))


def test_negation_inverts_second_entry():
    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    (pair,) = (-a).pairs()
    assert pair[0] == as_ratfunc(Q_BASE, 5)
    assert pair[1] == as_ratfunc(Q_BASE, T).inverse()


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
    t7 = Poly.gen(F7.field)
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


def test_unit_part_at_rational_points_matches_division():
    def by_strip(h, x):
        vn, rn = poly_strip(h.num, x.poly)
        vd, rd = poly_strip(h.den, x.poly)
        return vn - vd, rn.coeff(0) / rd.coeff(0)

    rng = random.Random(131)
    seen = set()
    for c in RATIONAL_POINTS:
        x = ClosedPoint.rational(Q_BASE, c)
        for _ in range(60):
            h = _rational_entry(rng, c)
            v, u = unit_part_at(h, x)
            assert (v, u) == by_strip(h, x)
            assert valuation_at(h, x) == v
            seen.add(v)
    assert seen >= set(range(-3, 4))


def test_unit_part_at_prime_field_points_matches_division():
    # the integer-representative route at F_p points of degree 1 to 3,
    # against Poly division and the residue field's own reduction
    def by_strip(h, x):
        vn, rn = poly_strip(h.num, x.poly)
        vd, rd = poly_strip(h.den, x.poly)
        if x.degree == 1:
            return vn - vd, rn.coeff(0) / rd.coeff(0)
        kappa = residue_field(x)
        return vn - vd, kappa.from_poly(rn) / kappa.from_poly(rd)

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
                    assert (v, u) == by_strip(h, x), (base, pi, h)
                    assert u.field is residue_field(x) and not u.is_zero
    x = ClosedPoint.finite(F13, Poly(F13.field, [1, 1]))
    with pytest.raises(TypeError):
        unit_part_at(Poly(F7.field, [3, 1]), x)


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


def _divisor_values(cls_):
    return tuple((x, rc.value) for x, rc in ramification_divisor(cls_))


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
                quadratic += any(x.degree == 2 for x, _ in ramification_divisor(c))
                outside += len(off)
    assert quadratic >= 12 and outside >= 50


def test_shared_symbols_are_expanded_once(monkeypatch):
    """After a's divisor, the divisor of a + s + s expands only s's
    entries, once at each point of that symbol's own zeros and poles."""
    rng = random.Random(139)
    real = brauer.unit_part_at
    for base, p in ((Q_BASE, 2), (F7, 3), (FiniteBase(9), 2)):
        for _ in range(4):
            a = random_class(rng, base, p, 2, 2, height=8)
            s = random_class(rng, base, p, 2, 2, height=8)
            ramification_divisor(a)
            calls = Counter()

            def counting(h, x):
                calls[id(h), x] += 1
                return real(h, x)

            monkeypatch.setattr(brauer, "unit_part_at", counting)
            div = ramification_divisor(a + s + s)
            monkeypatch.undo()
            want = Counter(
                (id(e), x)
                for sym in s.symbols
                for x in candidate_points(BrauerClass(base, p, (sym,)))
                for e in (sym.a, sym.b)
            )
            assert calls == want
            assert tuple((x, rc.value) for x, rc in div) == divisor_oracle(a + s + s)


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
        assert (new.point, new.at, new.pairs, new.equal) == (
            old.point, old.at, old.pairs, old.equal
        )
        assert (new.left, new.right) == (old.left, old.right)
        if old.point is None:
            assert new.residue is None
            kinds["specialized" if old.at is not None else "equal"] += 1
            continue
        assert new.residue.value == old.residue.value
        kinds["point"] += 1
        for d, c in ((old.left, a), (old.right, b)):
            if d.residue(old.point) is None and residue_at(c, old.point).value != 1:
                kinds["trivial residue other than 1"] += 1
    assert min(kinds.values()) >= 3 and len(kinds) == 4


def _horner(f, c):
    acc = Fraction(0)
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
        assert (cmp.equal, cmp.at, cmp.pairs) == (old.equal, old.at, old.pairs)
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


def test_compare_classes_checks_reciprocity_on_every_pair(monkeypatch):
    """A Hilbert symbol flipped at 3 breaks reciprocity on each pair with 3
    among its places.  Here two such pairs flip together, so the product
    over the whole difference still satisfies it; the check on each pair
    does not."""
    true_symbol = hilbert.hilbert_symbol

    def flipped(a, b, place):
        s = true_symbol(a, b, place)
        return -s if place == 3 else s

    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    b = a + BrauerClass.make(Q_BASE, 2, [(-1, 3), (3, -1)])
    assert compare_classes(a, b).equal
    monkeypatch.setattr(hilbert, "hilbert_symbol", flipped)
    with pytest.raises(AssertionError, match="reciprocity"):
        compare_classes(a, b)
