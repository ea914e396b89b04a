"""Polynomial and rational-function arithmetic."""

import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from brauercalc import factoring, fields
from brauercalc import poly as poly_module
from brauercalc.fields import GF, FFElem
from brauercalc.points import ClosedPoint, Q_BASE, sweep_values, valuation_at
from brauercalc.poly import (
    Poly,
    QQ,
    RationalFunction,
    _ListRing,
    _PRIMITIVE_RING,
    _gcd,
    _xgcd,
    _zadd,
    _zdivmod,
    _zmul,
    lagrange_interpolate,
    poly_gcd,
    poly_str,
    resultant,
)

from brauercalc.parser import parse_ratfunc

from _gen import nonzero_rational, random_poly, rational
from _oracles import (
    _FractionRing,
    field_list_derivative,
    field_list_divmod,
    field_list_product,
    field_list_sum,
    int_list_derivative,
    qq_poly_oracle,
    sylvester_resultant,
    zdivmod_mod_oracle,
)


def P(*ints):
    return Poly.from_ints(QQ, ints)


def test_constructor_trims_leading_zeros():
    assert Poly(QQ, [Fraction(1), Fraction(0), Fraction(0)]).degree == 0
    assert Poly(QQ, []).is_zero
    assert Poly(QQ, [Fraction(0)]).is_zero


def test_constructor_coerces_each_coefficient_into_its_field():
    F13, F7 = GF(13), GF(7)
    f = Poly(F13, [1, 1])
    assert f == Poly.from_ints(F13, [1, 1])
    assert len({f, Poly.from_ints(F13, [1, 1])}) == 1
    assert poly_str(f) == "t + 1"
    assert Poly(F13, [13]).is_zero
    g = Poly.from_ints(F7, [1, 0, 1])
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        RationalFunction(g, Poly(F7, [7]))
    assert resultant(Poly(F7, [3]), g) == resultant(Poly.from_ints(F7, [3]), g)
    assert all(type(c) is Fraction for c in Poly(QQ, [1, 2]).coeffs)
    for bad in ([0.5, 1], [F7.one]):
        with pytest.raises(TypeError):
            Poly(QQ, bad)


def test_degree_and_lc():
    f = P(1, 2, 3)
    assert f.degree == 2
    assert f.lc == 3
    assert Poly.zero(QQ).degree == -1
    with pytest.raises(ValueError):
        Poly.zero(QQ).lc


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(60):
        f = random_poly(rng, QQ, 4, 9)
        g = random_poly(rng, QQ, 4, 9)
        h = random_poly(rng, QQ, 3, 9)
        assert f + g == g + f
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f - f).is_zero
        assert 1 - f == P(1) - f and (1 - f) + f == P(1)
    for field in (QQ, GF(7)):
        f, zero = random_poly(rng, field, 4, min_degree=1), Poly.zero(field)
        assert f * zero == zero * f == zero * zero == zero


def test_divmod_identity_random():
    rng = random.Random(12)
    for _ in range(60):
        f = random_poly(rng, QQ, 6, 9)
        g = random_poly(rng, QQ, 3, 9)
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero or r.degree < g.degree


def test_divmod_over_finite_field():
    field = GF(7)
    rng = random.Random(13)
    for _ in range(40):
        f = random_poly(rng, field, 6)
        g = random_poly(rng, field, 3)
        q, r = divmod(f, g)
        assert q * g + r == f


def test_pow_and_negative_pow():
    f = P(1, 1)
    assert f**3 == P(1, 3, 3, 1)
    assert f**0 == Poly.one(QQ)
    with pytest.raises(ValueError):
        f ** (-1)


def test_power_spends_no_product_on_the_identity():
    # from the lowest set bit on: bit_length - 1 squarings and popcount - 1
    # products, and none at all for n = 0
    for n in range(70):
        products = []

        def mul(x, y):
            products.append((x, y))
            return x * y

        assert poly_module._power(3, n, 1, mul) == 3**n
        want = 0 if n == 0 else (n.bit_length() - 1) + (bin(n).count("1") - 1)
        assert len(products) == want, n


def test_evaluate():
    f = P(2, 0, 1)  # t^2 + 2
    assert f.evaluate(Fraction(3)) == 11
    assert f.evaluate(Fraction(-1, 2)) == Fraction(9, 4)
    field = GF(13)
    g = Poly.from_ints(field, [2, 0, 1])
    assert g.evaluate(field.from_int(3)) == 11 and g.evaluate(4) == 5


def test_gcd_xgcd_random():
    rng = random.Random(14)
    for _ in range(40):
        f = random_poly(rng, QQ, 4, 9)
        g = random_poly(rng, QQ, 4, 9)
        d = poly_gcd(f, g)
        assert d.is_monic
        assert (f % d).is_zero and (g % d).is_zero
        d2, s, t = (Poly(QQ, c) for c in _ListRing(field=QQ).xgcd(f.coeffs, g.coeffs))
        assert d2 == d
        assert s * f + t * g == d


def test_gcd_detects_common_factor():
    common = P(-2, 0, 1)
    f = common * P(1, 1)
    g = common * P(3, 0, 0, 1)
    assert (poly_gcd(f, g) % common).is_zero
    assert poly_gcd(Poly.zero(QQ), Poly.zero(QQ)) == Poly.zero(QQ)


def test_resultant_multiplicative_and_roots():
    # Res(f, g*h) = Res(f, g) * Res(f, h)
    rng = random.Random(15)
    for _ in range(25):
        f = random_poly(rng, QQ, 3, 7, min_degree=1)
        g = random_poly(rng, QQ, 3, 7, min_degree=1)
        h = random_poly(rng, QQ, 2, 7, min_degree=1)
        assert resultant(f, g * h) == resultant(f, g) * resultant(f, h)
    # Res(t - a, g) = g(a)
    for _ in range(25):
        a = Fraction(rng.randint(-9, 9))
        g = random_poly(rng, QQ, 4, 7)
        lin = Poly(QQ, [-a, Fraction(1)])
        assert resultant(lin, g) == g.evaluate(a)


def test_resultant_zero_iff_common_root():
    f = P(-1, 0, 1)  # (t-1)(t+1)
    g = P(-1, 1)  # t - 1
    assert resultant(f, g) == 0
    assert resultant(f, P(-2, 1)) != 0
    # the documented conventions for a constant first argument
    assert resultant(P(3), P(1, 1) ** 2) == 9
    assert resultant(P(3), Poly.zero(QQ)) == 1


def _resultant_pairs(rng, field, n):
    """Seeded pairs (f, g), f nonzero: deg g above deg f, deg g below
    deg f, a constant side, g = 0, and a planted common factor."""
    for i in range(n):
        kind = i % 5
        if kind == 0:
            f = random_poly(rng, field, 3, 9)
            g = random_poly(rng, field, 6, 9, min_degree=f.degree + 1)
        elif kind == 1:
            f = random_poly(rng, field, 6, 9, min_degree=1)
            g = random_poly(rng, field, f.degree - 1, 9)
        elif kind == 2:
            f, g = random_poly(rng, field, 4, 9), random_poly(rng, field, 4, 9)
            if rng.random() < 0.5:
                f = Poly.constant(field, f.lc)
            else:
                g = Poly.constant(field, g.lc)
        elif kind == 3:
            f, g = random_poly(rng, field, 4, 9), Poly.zero(field)
        else:
            common = random_poly(rng, field, 2, 9, min_degree=1)
            f = common * random_poly(rng, field, 3, 9)
            g = common * random_poly(rng, field, 3, 9)
        yield f, g


@pytest.mark.parametrize("q", [None, 7, 9])
def test_resultant_matches_the_sylvester_determinant(q):
    field = QQ if q is None else GF(q)
    rng = random.Random(4301 + (q or 0))
    zero = nonzero = 0
    for f, g in _resultant_pairs(rng, field, 200):
        got = resultant(f, g)
        assert got == sylvester_resultant(f, g), (f, g)
        zero, nonzero = zero + (got == field.zero), nonzero + (got != field.zero)
    assert zero >= 40 and nonzero >= 80


def test_resultant_matches_sympy_over_qq():
    # sympy's Sylvester determinant: sympy.resultant itself (1.14) has the
    # wrong sign on some pairs, 26 for Res(x^3 + 1, 3x^5 + 1) = -26
    sympy = pytest.importorskip("sympy")
    from sympy.polys.subresultants_qq_zz import res

    x = sympy.Symbol("x")

    def to_sympy(f):
        return sum(sympy.Rational(c.numerator, c.denominator) * x**i
                   for i, c in enumerate(f.coeffs))

    rng = random.Random(4302)
    for f, g in _resultant_pairs(rng, QQ, 100):
        if f.degree >= 1 and g.degree >= 1:
            want = sympy.Rational(res(to_sympy(f), to_sympy(g), x))
            assert resultant(f, g) == Fraction(int(want.p), int(want.q)), (f, g)
    assert resultant(P(1, 0, 0, 1), P(1, 0, 0, 0, 0, 3)) == -26


def _symmetric_list(rng, p, degree):
    """A list of degree `degree` with entries in (-p/2, p/2], as Hensel
    lifting passes them (poly._ztrunc); [] for degree -1."""
    reps = [c - p if c > p // 2 else c for c in range(p)]
    a = [rng.choice(reps) for _ in range(degree + 1)]
    if a:
        a[-1] = rng.choice(reps[1:])
    return a


@pytest.mark.parametrize("p", [2, 7, 13])
def test_xgcd_over_int_lists_gives_a_monic_gcd_and_bezout(p):
    R = _ListRing(p)
    rng = random.Random(4303 + p)
    for i in range(120):
        a, b = (_symmetric_list(rng, p, rng.randint(-1, 6)) for _ in range(2))
        if i % 4 == 0:
            common = _symmetric_list(rng, p, rng.randint(1, 3))
            a, b = _zmul(a, common), _zmul(b, common)
        g, s, t = R.xgcd(a, b)
        assert g == R.gcd(a, b) and (not g or g[-1] == 1), (a, b)
        assert R.reduce(_zadd(_zmul(s, a), _zmul(t, b))) == g, (a, b)
        if g:
            assert R.rem(a, g) == [] and R.rem(b, g) == []
    assert R.xgcd([], []) == ([], [1], [])


@pytest.mark.parametrize("q", [None, 9])
def test_xgcd_over_poly_rings_gives_a_monic_gcd_and_bezout(q):
    field = QQ if q is None else GF(q)
    R = _ListRing(field=field)
    rng = random.Random(4304 + (q or 0))
    for f, g in _resultant_pairs(rng, field, 150):
        for a, b in ((f, g), (g, f)):
            d, s, t = (Poly(field, c) for c in _xgcd(R, a.coeffs, b.coeffs))
            assert d == poly_gcd(a, b) and (d.is_zero or d.is_monic), (a, b)
            assert s * a + t * b == d, (a, b)
            # the cofactor bound that QuotientField inverses rely on
            assert b.is_zero or s.degree < b.degree - d.degree, (a, b)
    assert _xgcd(R, [], []) == ([], [field.one], [])


def test_lagrange_interpolate_recovers():
    rng = random.Random(16)
    for _ in range(25):
        f = random_poly(rng, QQ, 4, 9)
        pts = [(Fraction(x), f.evaluate(Fraction(x))) for x in range(-2, 3)]
        assert lagrange_interpolate(QQ, pts) == f
    # degree up to 16 over QQ at abscissae in sweep order, as the norm
    # polynomial takes them, and at distinct points of GF(13)
    for n in range(1, 18):
        f = random_poly(rng, QQ, n - 1, 9, min_degree=n - 1) * Fraction(1, rng.randint(1, 9))
        xs = list(itertools.islice(sweep_values(Q_BASE), n))
        assert lagrange_interpolate(QQ, [(x, f.evaluate(x)) for x in xs]) == f
    field = GF(13)
    for n in range(1, 14):
        f = random_poly(rng, field, n - 1, min_degree=n - 1)
        xs = rng.sample(list(field.elements()), n)
        assert lagrange_interpolate(field, [(x, f.evaluate(x)) for x in xs]) == f
    assert lagrange_interpolate(QQ, []) == Poly.zero(QQ)


def test_poly_valuation():
    at_t = ClosedPoint.finite(Q_BASE, P(0, 1))
    f = P(0, 0, 0, 5)  # 5 t^3
    assert valuation_at(f, at_t) == 3
    assert valuation_at(P(1, 1), at_t) == 0


def test_ratfunc_canonical_form():
    r = RationalFunction(P(0, 2), P(0, 0, 4))  # 2t / 4t^2 = (1/2) / t
    assert r.num == Poly.constant(QQ, Fraction(1, 2))
    assert r.den == P(0, 1)
    assert r.den.is_monic
    assert poly_gcd(r.num, r.den).degree == 0


def _lowest_terms_by_gcd(num, den):
    """The canonical pair by Euclid over the field, Fraction coefficients
    over QQ: the reference for the constructor."""
    g = Poly(num.field, _gcd(_ListRing(field=num.field), num.coeffs, den.coeffs))
    num, den = num.exact_div(g), den.exact_div(g)
    inv = den.field.one / den.lc
    return num * inv, den * inv


def test_ratfunc_planted_common_factors_match_gcd_reference():
    rng = random.Random(1701)
    for field in (QQ, GF(7), GF(9)):
        for _ in range(40):
            common = random_poly(rng, field, 2, 9)
            num = random_poly(rng, field, 3, 9) * common
            den = random_poly(rng, field, 3, 9) * common
            r = RationalFunction(num, den)
            assert (r.num, r.den) == _lowest_terms_by_gcd(num, den)


def _forbid_gcd(monkeypatch):
    def no_gcd(f, g):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(poly_module, "poly_gcd", no_gcd)


def test_coprime_rational_pairs_stay_in_lowest_terms(monkeypatch):
    rng = random.Random(1702)
    pairs = [
        (random_poly(rng, QQ, 4, 30, min_degree=1), random_poly(rng, QQ, 4, 30, min_degree=1))
        for _ in range(40)
    ]
    assert all(len(_gcd(_ListRing(field=QQ), num.coeffs, den.coeffs)) == 1
               for num, den in pairs)
    for num, den in pairs:
        expected = _lowest_terms_by_gcd(num, den)
        r = RationalFunction(num * Fraction(2, 3), den)
        assert (r.num, r.den) == (expected[0] * Fraction(2, 3), expected[1])
    # a constant side decides the gcd over every field
    _forbid_gcd(monkeypatch)
    f7 = GF(7)
    r = RationalFunction(Poly.from_ints(f7, [3, 1, 2]), Poly.constant(f7, 4))
    assert (r.num, r.den) == (Poly.from_ints(f7, [6, 2, 4]), Poly.one(f7))
    assert RationalFunction(P(3), P(1, 2)).num == Poly.constant(QQ, Fraction(3, 2))


def test_large_leading_entries_reach_lowest_terms():
    # m = 2^31 - 1 in a leading entry, and t, t - m, which meet modulo m
    m = 2**31 - 1
    r = RationalFunction(P(1, 0, 3 * m), P(-1, 1))
    assert (r.num, r.den) == (P(1, 0, 3 * m), P(-1, 1))
    r = RationalFunction(P(-1, 1) * P(5, m), P(-1, 1) * P(2, 4))
    assert (r.num, r.den) == (Poly(QQ, [Fraction(5, 4), Fraction(m, 4)]), P(Fraction(1, 2), 1))
    r = RationalFunction(P(0, 1), P(-m, 1))
    assert (r.num, r.den) == (P(0, 1), P(-m, 1))


def test_ratfunc_is_unequal_to_a_constant_its_field_cannot_take():
    f7 = GF(7)
    assert (RationalFunction(P(1, 1)) == f7.one) is False
    assert (RationalFunction(Poly.from_ints(f7, [1, 1])) == Fraction(1, 2)) is False
    assert (RationalFunction.constant(f7, 4) == Fraction(1, 2)) is False
    assert (RationalFunction.constant(QQ, 1) == f7.one) is False
    assert (RationalFunction.constant(f7, 1) == GF(49).one) is False
    # a constant of the field or of its base still compares by value
    assert RationalFunction.constant(GF(49), 1) == f7.one
    assert RationalFunction.constant(QQ, Fraction(1, 2)) == Fraction(1, 2)
    assert RationalFunction.constant(f7, 3) == 10


def _fraction_product(*fs):
    """The product on Fraction coefficient lists, the schoolbook loop."""
    out = [Fraction(1)]
    for f in fs:
        out = field_list_product(QQ, out, f.coeffs)
    return Poly(QQ, out)


def _crosswise_pairs(rng, n):
    """Seeded QQ functions x = c1 u1 A / (v1 B) and y = c2 u2 B / (v2 A): A
    and B planted crosswise, non-monic and negative leading entries, 2^31 - 1
    in a leading entry, constant sides, zero numerators and plain constants."""
    m = 2**31 - 1
    for i in range(n):
        A, B = (random_poly(rng, QQ, 2, 9, min_degree=1) for _ in range(2))
        u1, v1, u2, v2 = (random_poly(rng, QQ, 2, 30) for _ in range(4))
        c1, c2 = nonzero_rational(rng, 99), nonzero_rational(rng, 99)
        kind = i % 6
        if kind == 1:
            A, v2 = Poly.from_ints(QQ, [rng.randint(-9, 9), -m]), v2 * Poly.from_ints(QQ, [1, m])
        elif kind == 2:
            v1 = B = Poly.constant(QQ, nonzero_rational(rng, 9))
        elif kind == 3:
            c1 = 0
        elif kind == 4:
            u2, v2, B = Poly.constant(QQ, c2), Poly.constant(QQ, 1), Poly.constant(QQ, 1)
        x = RationalFunction(u1 * A * c1, v1 * B)
        y = RationalFunction(u2 * B * c2, v2 * A)
        yield (x, y) if rng.random() < 0.5 else (y, x)


def test_crosswise_products_match_lowest_terms_by_gcd():
    """Every QQ product, quotient, power and inverse equals the gcd reference
    on the Fraction coefficient products, with the denominator the cached
    monic_from_ints polynomial of its primitive form."""
    rng = random.Random(4801)
    planted = 0
    for x, y in _crosswise_pairs(rng, 240):
        planted += poly_gcd(x.num, y.den).degree >= 1 and poly_gcd(y.num, x.den).degree >= 1
        cases = [(x * y, (x.num, y.num), (x.den, y.den))]
        if not y.is_zero:
            cases.append((x / y, (x.num, y.den), (x.den, y.num)))
        if not x.is_zero:
            cases.append((x.inverse(), (x.den,), (x.num,)))
            cases += [(x**k, (x.den,) * -k, (x.num,) * -k) for k in (-1, -2)]
        cases += [(x**k, (x.num,) * k, (x.den,) * k) for k in (0, 1, 3)]
        for r, nums, dens in cases:
            want = _lowest_terms_by_gcd(_fraction_product(*nums), _fraction_product(*dens))
            assert (r.num, r.den) == want, (x, y, r)
            assert r.den.is_monic and r.num.field is QQ is r.den.field
        for r in [x * y, x / 3] + ([3 / y] if not y.is_zero else []):
            assert r.den is Poly.monic_from_ints(r.den.int_form()[1]), r
    assert planted >= 100


def test_crosswise_products_take_no_poly_product(monkeypatch):
    """Route guard: a QQ product or quotient multiplies no Poly, takes at
    most the two crosswise gcds, on unmultiplied sides, and builds one
    Fraction, its content, once the denominator is cached; a polynomial
    entry and a polynomial times a constant take no gcd at all."""
    f, g, h = P(3, -1, 2), P(-5, 0, 7), P(1, 4)
    x, y = RationalFunction(f * h, g), RationalFunction(g * Fraction(2, 7), h * 6)
    sides = {f._int_form[1], g._int_form[1], h._int_form[1], (f * h)._int_form[1]}
    warm = x * y, x / y, y / x, x * 5, f * Fraction(3, 4)

    def no_product(*args):
        raise AssertionError("Poly.__mul__ called")

    gcds, fractions = [], []
    real_gcd, real_fraction = poly_module._gcd, poly_module.Fraction

    def counted_gcd(R, a, b):
        gcds.append((tuple(a), tuple(b)))
        return real_gcd(R, a, b)

    def counted_fraction(*args):
        fractions.append(args)
        return real_fraction(*args)

    monkeypatch.setattr(Poly, "__mul__", no_product)
    monkeypatch.setattr(Poly, "__rmul__", no_product)
    monkeypatch.setattr(poly_module, "_gcd", counted_gcd)
    plain = RationalFunction(f), RationalFunction(f) * Fraction(3, 4), x * 5
    assert gcds == []
    monkeypatch.setattr(poly_module, "Fraction", counted_fraction)
    got, counts = [], []
    for op in (lambda: x * y, lambda: x / y, lambda: y / x):
        gcds.clear(), fractions.clear()
        got.append(op())
        counts.append((list(gcds), len(fractions)))
    monkeypatch.undo()
    assert got == list(warm[:3])
    for used, built in counts:
        assert 1 <= len(used) <= 2 and all(a in sides and b in sides for a, b in used)
        assert built == 1
    assert plain[0].num is f and plain[0].den == Poly.one(QQ)
    assert plain[1] == RationalFunction(warm[4]) and plain[2] == warm[3]


def _cancel_by_euclid(a, b):
    """The reference for _cancel: Euclid's gcd in _PrimitiveRing and its
    quotients whenever both sides have positive degree."""
    if len(a) > 1 and len(b) > 1 and len(g := _gcd(_PRIMITIVE_RING, a, b)) > 1:
        return tuple(_PRIMITIVE_RING.quo(a, g)), tuple(_PRIMITIVE_RING.quo(b, g))
    return a, b


def _primitive_of(a):
    return tuple(poly_module._int_list_primitive(list(a)))


def _linear_side_pairs(rng, n):
    """Seeded primitive pairs with a linear side den*t - num, den 1, 2 or 3,
    either side first: against a side of degree 0 to 6 that has the root
    zero, one or two times (only one copy cancels), against a linear side,
    the same root or another, and against a constant side (1,)."""
    for i in range(n):
        den = 1 + i % 3
        num = rng.choice([k for k in range(-9, 10) if math.gcd(k, den) == 1])
        lin = (-num, den)
        kind = i % 5
        if kind == 3:
            other = lin if rng.random() < 0.5 else _primitive_of((rng.randint(-9, 9), den))
        elif kind == 4:
            other = (1,)
        else:
            other = [rng.randint(-20, 20) for _ in range(rng.randint(0, 6 - kind))]
            other.append(rng.randint(1, 9))
            for _ in range(kind):
                other = _zmul(other, lin)
            other = _primitive_of(other)
        yield (lin, other) if rng.random() < 0.5 else (other, lin)


def test_linear_side_cancels_as_euclid_does():
    """_cancel with a linear side, read off one evaluation and synthetic
    division, against Euclid in _PrimitiveRing; the pairs cover roots with
    denominators 2 and 3, a repeated root, linear against linear and a
    constant side, and each outcome many times."""
    rng = random.Random(5201)
    cancelled = repeated = coprime = 0
    for a, b in _linear_side_pairs(rng, 400):
        got = poly_module._cancel(a, b)
        assert got == _cancel_by_euclid(a, b), (a, b)
        assert all(type(side) is tuple and side[-1] > 0 for side in got), (a, b, got)
        lin, other = (a, b) if len(a) == 2 else (b, a)
        cancelled += got != (a, b)
        coprime += got == (a, b) and len(other) > 1
        repeated += poly_module._int_list_strip(list(other), list(lin))[0] >= 2
    assert cancelled >= 100 and coprime >= 50 and repeated >= 30
    for lin in ((-3, 2), (1, 3), (0, 1)):
        assert poly_module._cancel(lin, (1,)) == (lin, (1,))
        assert poly_module._cancel((1,), lin) == ((1,), lin)
        assert poly_module._cancel(lin, lin) == ((1,), (1,))


def test_a_linear_side_runs_no_euclid(monkeypatch):
    """Route guard: with _euclid patched to raise, every pair with a linear
    side still cancels, and so does a QQ quotient by t - r."""
    rng = random.Random(5202)
    pairs = list(_linear_side_pairs(rng, 100))
    want = [_cancel_by_euclid(a, b) for a, b in pairs]
    x = RationalFunction(P(2, -3, 0, 4), P(6, 1, 1))
    quotient = x / RationalFunction(P(-1, 2))

    def no_euclid(*args):
        raise AssertionError("_euclid called with a linear side")

    monkeypatch.setattr(poly_module, "_euclid", no_euclid)
    assert [poly_module._cancel(a, b) for a, b in pairs] == want
    assert x / RationalFunction(P(-1, 2)) == quotient
    assert (x * P(-1, 2)) / P(-1, 2) == x


def test_operands_keep_their_errors_and_results():
    """RationalFunction products and quotients over QQ and GF(7): another
    field's function or polynomial raises TypeError, 0 and the zero function
    as a divisor raise ZeroDivisionError with one message, and a Poly, int
    or Fraction operand gives the constructor's lowest terms of the product
    or quotient with its rational function, on either side of *."""
    f7 = GF(7)
    x = RationalFunction(P(1, 2, 5), P(-3, 0, 1))
    y = RationalFunction(Poly.from_ints(f7, [3, 1]), Poly.from_ints(f7, [1, 0, 1]))
    for u, v in ((x, y), (y, x), (x, Poly.from_ints(f7, [1, 1])), (y, P(1, 1))):
        for op in (lambda: u * v, lambda: u / v):
            with pytest.raises(TypeError):
                op()
    for u in (x, y):
        zeros = [0, RationalFunction(Poly.zero(u.field)), Poly.zero(u.field)]
        for zero in zeros + ([Fraction(0)] if u.field is QQ else []):
            with pytest.raises(ZeroDivisionError, match="^division by the zero rational function$"):
                u / zero
        operands = [3, Poly.from_ints(u.field, [2, 0, 1])]
        operands += [Fraction(-5, 3), P(-1, 2)] if u.field is QQ else []
        for v in operands:
            r = RationalFunction.coerce(u.field, v)
            product = RationalFunction(u.num * r.num, u.den * r.den)
            want = (product, RationalFunction(u.num * r.den, u.den * r.num),
                    RationalFunction(r.num * u.den, r.den * u.num))
            assert (u * v, u / v, v / u) == want, (u, v)
            assert v * u == product


def test_a_poly_defers_to_a_rational_function():
    """A Poly on the left of +, - or * with a RationalFunction, over QQ and
    GF(7), gives what the other order gives; an int, Fraction or same-field
    element still gives the result of its constant Poly, and a GF(7)
    element against a Poly over QQ still raises TypeError."""
    f7 = GF(7)
    for field in (QQ, f7):
        p = Poly.from_ints(field, [1, 1])
        r = RationalFunction(Poly.from_ints(field, [2, 0, 1]), Poly.from_ints(field, [0, 1]))
        q, got = RationalFunction(p), (p * r, p + r, p - r)
        assert got == (r * p, r + p, -(r - p)) == (q * r, q + r, q - r)
        assert all(type(v) is RationalFunction for v in got)
        for c in (3, f7.from_int(5)) if field is f7 else (3, Fraction(-5, 3)):
            k = Poly.constant(field, c)
            assert (p * c, c * p, p + c, c + p, p - c, c - p) == (
                p * k, k * p, p + k, k + p, p - k, k - p), (field, c)
    e = f7.from_int(3)
    for op in (operator.mul, operator.add, operator.sub):
        for u, v in ((P(1, 1), e), (e, P(1, 1))):
            with pytest.raises(TypeError):
                op(u, v)


def _gcd_pairs(rng, n):
    """Seeded QQ pairs: coprime, with a planted common factor, scaled by
    different contents, with a constant side or a zero side."""
    for i in range(n):
        f = random_poly(rng, QQ, 5, 30)
        g = random_poly(rng, QQ, 5, 30)
        kind = i % 5
        if kind == 1:
            common = random_poly(rng, QQ, 3, 9, min_degree=1)
            f, g = f * common, g * common**rng.randint(1, 2)
        elif kind == 2:
            common = random_poly(rng, QQ, 2, 9, min_degree=1)
            f = f * common * nonzero_rational(rng, 99)
            g = g * common * Fraction(rng.randint(1, 10**12), rng.randint(1, 99))
        elif kind == 3:
            g = Poly.constant(QQ, nonzero_rational(rng, 9))
        elif kind == 4:
            f, g = (Poly.zero(QQ), g) if rng.random() < 0.5 else (f, Poly.zero(QQ))
        if rng.random() < 0.5:
            f, g = g, f
        yield f, g


def test_rational_gcd_matches_euclid_over_fractions():
    # the gcd on primitive integer forms, _gcd over _PrimitiveRing, against
    # Euclid on Fraction coefficients, the _FractionRing oracle
    rng = random.Random(1703)
    for f, g in _gcd_pairs(rng, 200):
        want = _FractionRing().gcd(f, g)
        got = poly_gcd(f, g)
        assert got == want, (f, g)
        assert got.is_zero or got.is_monic
    assert poly_gcd(Poly.zero(QQ), Poly.zero(QQ)).is_zero


def test_rational_gcd_builds_no_poly_ring(monkeypatch):
    # route guard: a gcd over QQ, in lowest terms or in factoring, runs on
    # integer forms, never on Fraction coefficient lists
    real = poly_module._ListRing

    def no_qq(m=None, field=None):
        if field is QQ:
            raise AssertionError("_ListRing(field=QQ) built for a gcd")
        return real(m, field)

    monkeypatch.setattr(poly_module, "_ListRing", no_qq)
    monkeypatch.setattr(factoring, "_ListRing", no_qq)
    rng = random.Random(1704)
    for f, g in _gcd_pairs(rng, 40):
        poly_gcd(f, g)
        if not g.is_zero:
            RationalFunction(f, g)
    factoring._factor_q_monic.cache_clear()
    # (t^2 + 1)^2 (t^2 + 2) goes through the squarefree loop over Q
    f = P(1, 0, 1) ** 2 * P(2, 0, 1)
    assert [e for _, e in factoring.factor_over_Q(f)] == [2, 1]


def test_ratfunc_field_ops_random():
    rng = random.Random(17)
    for _ in range(40):
        a = RationalFunction(random_poly(rng, QQ, 3, 7), random_poly(rng, QQ, 2, 7))
        b = RationalFunction(random_poly(rng, QQ, 3, 7), random_poly(rng, QQ, 2, 7))
        assert a * b == b * a
        assert a + b == b + a
        if not b.is_zero:
            assert (a / b) * b == a
        assert (a - b) + b == a
        assert 1 - a == RationalFunction(Poly.one(QQ)) - a
        if not a.is_zero:
            assert 1 / a == a.inverse()
        assert a * a.inverse() == RationalFunction(Poly.one(QQ))


def test_ratfunc_inverse_matches_normalized_swap():
    # inverse swaps an already coprime pair without a gcd; the result must
    # be the canonical form the constructor gives
    rng = random.Random(19)
    for field in (QQ, GF(7), GF(9)):
        for _ in range(30):
            h = RationalFunction(random_poly(rng, field, 3, 9), random_poly(rng, field, 2, 9))
            if h.is_zero:
                continue
            inv = h.inverse()
            want = RationalFunction(h.den, h.num)
            assert (inv.num, inv.den) == (want.num, want.den)
            assert inv.den.is_monic and inv.inverse() == h
            assert (h**-2) == want * want


def test_ratfunc_valuations():
    t = RationalFunction(P(0, 1))
    at_t = ClosedPoint.finite(Q_BASE, P(0, 1))
    inf = ClosedPoint.infinity(Q_BASE)
    assert valuation_at(t**3, at_t) == 3
    assert valuation_at(t**-2, at_t) == -2
    assert valuation_at(t, inf) == -1
    assert valuation_at(t**-2, inf) == 2
    five = RationalFunction(P(5))
    assert valuation_at(five, inf) == 0


def test_ratfunc_substitute_matches_evaluation():
    rng = random.Random(18)
    for _ in range(25):
        f = RationalFunction(random_poly(rng, QQ, 3, 5), random_poly(rng, QQ, 2, 5))
        g = RationalFunction(random_poly(rng, QQ, 2, 5), random_poly(rng, QQ, 1, 5))
        h = f.substitute(g)
        for x in (Fraction(2), Fraction(-3), Fraction(5)):
            try:
                inner = g.evaluate(x)
                want = f.evaluate(inner)
                got = h.evaluate(x)
            except ZeroDivisionError:
                continue
            assert got == want


def test_poly_str_shapes():
    assert poly_str(P(0, 1)) == "t"
    assert poly_str(P(-2, 0, 1)) == "t^2 - 2"
    assert poly_str(P(1, -1)) == "-t + 1"
    assert poly_str(P(0, 3)) == "3*t"
    assert poly_str(Poly.zero(QQ)) == "0"
    assert poly_str(Poly.constant(QQ, Fraction(-5))) == "-5"
    # fractional coefficients are parenthesized so '*' and '/' stay unambiguous
    assert poly_str(Poly.constant(QQ, Fraction(-1, 2))) == "(-1/2)"
    assert poly_str(Poly(QQ, [Fraction(0), Fraction(1, 2)])) == "(1/2)*t"


def test_int_form_is_primitive_content_split():
    rng = random.Random(71)
    polys = [random_poly(rng, QQ, 6, height=40) for _ in range(60)]
    polys.append(Poly(QQ, [rational(rng, 30) for _ in range(5)] + [Fraction(-7, 3)]))
    polys.append(P(0, 0, 4))
    for f in polys:
        content, ints = f.int_form()
        assert isinstance(content, Fraction) and isinstance(ints, tuple)
        assert all(type(c) is int for c in ints)
        assert Poly.from_ints(QQ, ints) * content == f
        assert ints[-1] > 0
        assert math.gcd(*ints) == 1
        assert f.int_form() is f.int_form()
    with pytest.raises(ValueError):
        Poly.zero(QQ).int_form()
    with pytest.raises(TypeError):
        Poly.from_ints(GF(7), [0, 1]).int_form()


def test_scalar_multiple_keeps_the_integer_form():
    # f * c has the integers of f and content times c; the form carried
    # across is the one computed afresh
    rng = random.Random(72)
    for _ in range(40):
        f = random_poly(rng, QQ, 5, height=30)
        content, ints = f.int_form()
        c = rational(rng, 12)
        g = f * c
        if c == 0:
            assert g.is_zero
            continue
        assert g.int_form() == (content * c, ints)
        assert g.int_form() == Poly(QQ, g.coeffs).int_form()
    # the coprimality certificate computes both forms, and the scaling to a
    # monic denominator keeps them
    h = RationalFunction(P(2, 3), P(4, 0, 6))
    assert h.num._int_form == Poly(QQ, h.num.coeffs).int_form()
    assert h.den._int_form == (Fraction(1, 3), (2, 0, 3))


def _poly_text(ints):
    """The grammar's text of the integer polynomial ints, lowest degree first."""
    terms = [(c, k) for k, c in enumerate(ints) if c][::-1]
    if not terms:
        return "0"
    out = "-" if terms[0][0] < 0 else ""
    for i, (c, k) in enumerate(terms):
        if i:
            out += " - " if c < 0 else " + "
        out += f"{abs(c)}*t^{k}" if k else str(abs(c))
    return out


def _primitive(rng):
    """A primitive integer tuple with a positive leading entry."""
    while True:
        ints = [rng.randint(-3, 3) for _ in range(rng.randint(0, 2))] + [rng.randint(1, 3)]
        if math.gcd(*ints) == 1:
            return tuple(ints)


def _convolve(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
        out[i + j] += x * y
    return out


def _qq_by_route(rng, route):
    """(f, its coefficients as rationals) with f built by the route."""
    ints = [rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]
    if route == "fractions":
        cs = [Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3])) for _ in ints]
        return Poly(QQ, cs), cs
    if route == "ints":
        return Poly.from_ints(QQ, ints), ints
    if route == "parser":
        return parse_ratfunc(_poly_text(ints), QQ).num, ints
    if route == "monic":
        prim = _primitive(rng)
        return Poly.monic_from_ints(prim), [Fraction(c, prim[-1]) for c in prim]
    f, a = _qq_by_route(rng, rng.choice(["fractions", "ints", "parser", "monic"]))
    if route == "scalar":
        c = rng.choice([rng.randint(-3, 3), rational(rng, 3)])
        return f * c, [x * c for x in a]
    g, b = _qq_by_route(rng, rng.choice(["fractions", "ints", "parser", "monic"]))
    return f * g, _convolve(a, b)


QQ_ROUTES = ("fractions", "ints", "parser", "monic", "product", "scalar")


def test_qq_polys_by_every_route_match_the_fraction_oracle():
    """2000 seeded polynomials over QQ, each built from a Fraction list, by
    from_ints, the parser, monic_from_ints, a product or a scalar multiple,
    report what the oracle reads off their Fraction tuples; equal values
    compare equal and hash alike across routes, and unequal ones differ."""
    rng = random.Random(361)
    groups = {}
    for i in range(2000):
        route = QQ_ROUTES[i % len(QQ_ROUTES)]
        f, cs = _qq_by_route(rng, route)
        want = qq_poly_oracle(cs)
        assert f.coeffs == want.coeffs and all(type(c) is Fraction for c in f.coeffs), route
        assert (f.degree, f.is_zero, f.sort_key()) == (want.degree, not cs or not any(cs),
                                                       want.sort_key), route
        if want.int_form is None:
            with pytest.raises(ValueError):
                f.int_form()
        else:
            assert (f.int_form(), f.lc) == (want.int_form, want.lc), route
        assert f == Poly(QQ, want.coeffs) and hash(f) == hash(Poly(QQ, want.coeffs))
        groups.setdefault(want.coeffs, []).append((route, f))
    assert len(groups) > 100 and sum(len(g) > 1 for g in groups.values()) > 50
    routes_met = {r for g in groups.values() if len(g) > 1 for r, _ in g}
    assert routes_met == set(QQ_ROUTES)
    for g in groups.values():
        for (_, f), (_, h) in itertools.combinations(g, 2):
            assert f == h and hash(f) == hash(h)
    reps = [g[0][1] for g in groups.values()]
    for f, h in zip(reps, reps[1:]):
        assert f != h


def _coeffs_built(f):
    """Whether f holds its coefficient tuple, read past Poly.__getattr__."""
    try:
        Poly.coeffs.__get__(f, Poly)
    except AttributeError:
        return False
    return True


def test_integer_polys_hash_compare_and_multiply_with_no_coefficient_tuple():
    """Over QQ, polynomials from from_ints, the parser and monic_from_ints,
    and their products, scalar multiples and negatives, are hashed,
    compared, used as keys and read for degree, leading coefficient and
    integer form without any of them building its Fraction coefficients."""
    Poly.monic_from_ints.cache_clear()
    rng = random.Random(362)
    polys = []
    for _ in range(150):
        ints = [rng.randint(-40, 40) for _ in range(rng.randint(0, 4))] + [rng.randint(1, 40)]
        polys += [Poly.from_ints(QQ, ints), parse_ratfunc(_poly_text(ints), QQ).num,
                  Poly.monic_from_ints((rng.randint(10**6, 10**7),) + _primitive(rng))]
    made = [f * g for f, g in zip(polys, polys[1:])]
    made += [f * rational(rng, 9) for f in polys] + [-f for f in polys] + [f * 0 for f in polys]
    table = {}
    for f in polys + made:
        table.setdefault(f, f)
        assert f.degree >= -1 and (f.is_zero or f.lc == f.int_form()[0] * f.int_form()[1][-1])
    assert all(table[f] == f for f in polys + made)
    assert sum(f == g for f, g in zip(polys[::3], polys[1::3])) == len(polys) // 3
    assert not [f for f in polys + made if _coeffs_built(f) and not f.is_zero]


def _kernel_lists(rng, field):
    """200 coefficient-list pairs over the field, a third of the entries
    zero and trailing zeros trimmed: degree -1 to 6, the zero list, constants
    and degree-0 divisors first."""
    def draw(n):
        if field is QQ:
            cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
        else:
            cs = [field.element_at(rng.randrange(field.order)) for _ in range(n)]
        cs = [c if rng.random() < 0.67 else field.zero for c in cs]
        while cs and cs[-1] == field.zero:
            cs.pop()
        return cs

    constant = [field.one + field.one]
    pairs = [([], constant), (constant, constant), (draw(5), constant), ([], draw(3))]
    pairs += [(draw(rng.randint(0, 7)), draw(rng.randint(0, 7))) for _ in range(200 - len(pairs))]
    return pairs


@pytest.mark.parametrize("q", [0, 7, 9, 49], ids=["QQ", "GF7", "GF9", "GF49"])
def test_poly_kernel_matches_the_coefficient_loops(q):
    """Poly +, *, divmod and derivative, on poly's one coefficient-list
    kernel, against the per-coefficient loops over each field; every
    coefficient stays a Fraction over QQ and an element of the field else."""
    field = GF(q) if q else QQ
    kind = Fraction if q == 0 else FFElem
    for a, b in _kernel_lists(random.Random(44 + q), field):
        f, g = Poly(field, a), Poly(field, b)
        got = [f + g, f * g, f.derivative()]
        want = [field_list_sum(field, a, b), field_list_product(field, a, b),
                field_list_derivative(field, a)]
        if not b:
            with pytest.raises(ZeroDivisionError):
                divmod(f, g)
        else:
            got += divmod(f, g)
            want += field_list_divmod(field, a, b)
            assert _zdivmod(a, b, field=field) == field_list_divmod(field, a, b), (field, a, b)
        assert [list(h.coeffs) for h in got] == want, (field, a, b)
        assert all(type(c) is kind for h in got for c in h.coeffs), (field, a, b)
        assert all(c.field is field for h in got for c in h.coeffs if kind is FFElem)


@pytest.mark.parametrize("p", [2, 7, 13])
def test_integer_list_kernel_matches_the_reduced_loops(p):
    """_zdivmod modulo m = p^3 on symmetric representatives, and the
    derivatives of _ListRing(p) and _PrimitiveRing, against loops that
    reduce every entry at every step."""
    rng, m = random.Random(p), p**3

    def draw(n, unit_lead=False):
        cs = [rng.randint(-(m // 2), m // 2) if rng.random() < 0.67 else 0 for _ in range(n)]
        if unit_lead:
            cs[-1] = rng.choice([c for c in range(-(m // 2), m // 2 + 1) if c % p])
        while cs and not cs[-1]:
            cs.pop()
        return cs

    pairs = [([], [1]), ([3], [-1]), (draw(5), [rng.choice([1, -1])])]
    pairs += [(draw(rng.randint(0, 8)), draw(rng.randint(1, 5), True)) for _ in range(197)]
    R = _ListRing(p)
    for a, b in pairs:
        assert list(_zdivmod(a, b, m)) == list(zdivmod_mod_oracle(a, b, m)), (a, b)
        assert R.derivative(a) == int_list_derivative(a, p), a
        assert _PRIMITIVE_RING.derivative(a) == int_list_derivative(a), a


def test_field_products_go_through_the_list_kernel(monkeypatch):
    """Poly.__mul__ over GF(9) and QuotientField._mul multiply on poly._zmul."""
    in_poly, in_fields = [], []
    monkeypatch.setattr(poly_module, "_zmul", lambda *a: in_poly.append(a) or _zmul(*a))
    monkeypatch.setattr(fields, "_zmul", lambda *a: in_fields.append(a) or _zmul(*a))
    f9 = GF(9)
    x = f9.element_at(5)
    f, want = Poly(f9, [x, f9.one]), Poly(f9, [x * x, x + x, f9.one])
    in_fields.clear()
    assert x * x == want.coeffs[0] and len(in_fields) == 1
    assert f * f == want and len(in_poly) == 1
