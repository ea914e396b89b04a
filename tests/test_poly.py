"""Polynomial and rational-function arithmetic."""

import math
import random
from fractions import Fraction

import pytest

from brauercalc import poly as poly_module
from brauercalc.fields import GF
from brauercalc.points import ClosedPoint, Q_BASE, valuation_at
from brauercalc.poly import (
    Poly,
    QQ,
    RationalFunction,
    lagrange_interpolate,
    poly_gcd,
    poly_str,
    poly_xgcd,
    resultant,
)

from _gen import random_poly, rational


def P(*ints):
    return Poly.from_ints(QQ, ints)


def test_constructor_trims_leading_zeros():
    assert Poly(QQ, [Fraction(1), Fraction(0), Fraction(0)]).degree == 0
    assert Poly(QQ, []).is_zero
    assert Poly(QQ, [Fraction(0)]).is_zero


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


def test_evaluate_compose():
    f = P(2, 0, 1)  # t^2 + 2
    assert f.evaluate(Fraction(3)) == 11
    g = P(1, 1)  # t + 1
    assert f.compose(g) == P(3, 2, 1)


def test_gcd_xgcd_random():
    rng = random.Random(14)
    for _ in range(40):
        f = random_poly(rng, QQ, 4, 9)
        g = random_poly(rng, QQ, 4, 9)
        d = poly_gcd(f, g)
        assert d.is_monic
        assert (f % d).is_zero and (g % d).is_zero
        d2, s, t = poly_xgcd(f, g)
        assert d2 == d
        assert s * f + t * g == d


def test_gcd_detects_common_factor():
    common = P(-2, 0, 1)
    f = common * P(1, 1)
    g = common * P(3, 0, 0, 1)
    assert (poly_gcd(f, g) % common).is_zero


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


def test_lagrange_interpolate_recovers():
    rng = random.Random(16)
    for _ in range(25):
        f = random_poly(rng, QQ, 4, 9)
        pts = [(Fraction(x), f.evaluate(Fraction(x))) for x in range(-2, 3)]
        assert lagrange_interpolate(QQ, pts) == f


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
    """The canonical pair by the exact gcd, the reference for the constructor."""
    g = poly_gcd(num, den)
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


def test_coprime_rational_pairs_take_no_gcd(monkeypatch):
    rng = random.Random(1702)
    pairs = [
        (random_poly(rng, QQ, 4, 30, min_degree=1), random_poly(rng, QQ, 4, 30, min_degree=1))
        for _ in range(40)
    ]
    assert all(poly_gcd(num, den).degree == 0 for num, den in pairs)
    want = [_lowest_terms_by_gcd(num, den) for num, den in pairs]
    _forbid_gcd(monkeypatch)
    for (num, den), expected in zip(pairs, want):
        r = RationalFunction(num * Fraction(2, 3), den)
        assert (r.num, r.den) == (expected[0] * Fraction(2, 3), expected[1])
    # a constant side decides the gcd over every field
    f7 = GF(7)
    r = RationalFunction(Poly.from_ints(f7, [3, 1, 2]), Poly.constant(f7, 4))
    assert (r.num, r.den) == (Poly.from_ints(f7, [6, 2, 4]), Poly.one(f7))
    assert RationalFunction(P(3), P(1, 2)).num == Poly.constant(QQ, Fraction(3, 2))


def test_certificate_prime_in_a_leading_entry_takes_the_exact_gcd(monkeypatch):
    m = poly_module._COPRIME_PRIME
    real_gcd = poly_module.poly_gcd
    calls = []

    def counted_gcd(f, g):
        calls.append((f, g))
        return real_gcd(f, g)

    monkeypatch.setattr(poly_module, "poly_gcd", counted_gcd)
    # coprime, but the prime divides the leading entry of the numerator
    r = RationalFunction(P(1, 0, 3 * m), P(-1, 1))
    assert len(calls) == 1 and (r.num, r.den) == (P(1, 0, 3 * m), P(-1, 1))
    # a common factor t - 1 behind the same leading entry
    r = RationalFunction(P(-1, 1) * P(5, m), P(-1, 1) * P(2, 4))
    assert len(calls) == 2
    assert (r.num, r.den) == (Poly(QQ, [Fraction(5, 4), Fraction(m, 4)]), P(Fraction(1, 2), 1))
    # coprime over Q, yet t and t - m meet mod the prime
    r = RationalFunction(P(0, 1), P(-m, 1))
    assert len(calls) == 3 and (r.num, r.den) == (P(0, 1), P(-m, 1))


def test_ratfunc_field_ops_random():
    rng = random.Random(17)
    for _ in range(40):
        a = RationalFunction(random_poly(rng, QQ, 3, 7), random_poly(rng, QQ, 2, 7))
        b = RationalFunction(random_poly(rng, QQ, 3, 7), random_poly(rng, QQ, 2, 7))
        assert a * b == b * a
        assert a + b == b + a
        if not b.is_zero:
            assert (a / b) * b == a
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
        Poly.gen(GF(7)).int_form()


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
