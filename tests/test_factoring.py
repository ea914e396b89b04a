"""Integer and polynomial factorization against independent oracles.

The finite-field oracle enumerates monic divisors by brute force, so it
is slow but unarguable; it caps the degrees it is asked about.  Over Q
the reference factorizations are built from certificates (linear
polynomials, Eisenstein polynomials, quadratics with nonsquare
discriminant), never from the engine under test.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from brauercalc import factoring, fields
from brauercalc.cli import main
from brauercalc.errors import ScopeError
from brauercalc.factoring import (
    factor_int,
    factor_over_Fq,
    factor_over_Q,
    factor_poly,
    is_irreducible,
    is_prime,
    squarefree_decomposition,
    squarefree_kernel,
)
from brauercalc.fields import GF, FFElem
from brauercalc.poly import Poly, QQ, poly_gcd

from _gen import random_poly


# ---------------------------------------------------------------------------
# oracles

def oracle_monic_divisors(f, max_degree):
    """All monic divisors of f over a finite field, degree 1..max_degree."""
    field = f.field
    found = []
    for deg in range(1, max_degree + 1):
        for tail in itertools.product(range(field.order), repeat=deg):
            g = Poly.from_ints(field, list(tail) + [1])
            if (f % g).is_zero:
                found.append(g)
    return found


def oracle_is_irreducible_ff(f):
    """Brute force over a finite field; only for degree <= 4."""
    assert 1 <= f.degree <= 4
    return not oracle_monic_divisors(f, f.degree // 2)


def oracle_factor_ff(f):
    """Full factorization by repeated smallest-divisor search, degree <= 4."""
    field = f.field
    unit = f.lc
    f = f.monic()
    factors = {}
    while f.degree >= 1:
        divs = oracle_monic_divisors(f, f.degree)
        g = min(divs, key=lambda d: (d.degree, d.sort_key()))
        f = f.exact_div(g)
        factors[g.sort_key()] = (g, factors.get(g.sort_key(), (g, 0))[1] + 1)
    return unit, sorted(
        ((g, e) for g, e in factors.values()), key=lambda ge: ge[0].sort_key()
    )


def eisenstein_poly(rng, p, degree):
    """Monic, Eisenstein at p: irreducible over Q by the classical criterion."""
    while True:
        coeffs = [p * rng.randint(-4, 4) for _ in range(degree)]
        if coeffs[0] % (p * p) != 0 and coeffs[0] != 0:
            return Poly.from_ints(QQ, coeffs + [1])


def known_irreducible_Q(rng, max_degree):
    kind = rng.randrange(3)
    if kind == 0:
        a = rng.randint(-9, 9)
        return Poly.from_ints(QQ, [a, 1])
    if kind == 1:
        # x^2 + bx + c with b^2 - 4c < 0
        b = rng.randint(-6, 6)
        c = rng.randint(b * b // 4 + 1, b * b // 4 + 12)
        return Poly.from_ints(QQ, [c, b, 1])
    return eisenstein_poly(rng, rng.choice([2, 3, 5]), rng.randint(2, max_degree))


# ---------------------------------------------------------------------------
# integers

def test_is_prime_against_trial_division():
    def trial(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(-3, 2000):
        assert is_prime(n) == trial(n), n


def test_factor_int_reconstructs_and_is_prime():
    rng = random.Random(21)
    for _ in range(120):
        n = rng.randint(2, 10**9)
        fac = factor_int(n)
        prod = fac.unit
        for q, e in fac:
            assert is_prime(q)
            prod *= q**e
        assert prod == n
        qs = [q for q, _ in fac]
        assert qs == sorted(qs) and len(set(qs)) == len(qs)


def test_factor_int_negative_and_units():
    fac = factor_int(-12)
    assert fac.unit == -1
    assert list(fac) == [(2, 2), (3, 1)]
    assert factor_int(1).unit == 1 and not factor_int(1).factors
    assert factor_int(-1).unit == -1


def test_factor_int_splits_finite_field_unit_group_orders():
    # the orders q^d - 1 that generator searches in residue fields factor
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        for d in range(1, 33):
            fac = factor_int(q**d - 1)
            prod = 1
            for r, e in fac:
                assert is_prime(r)
                prod *= r**e
            assert prod == q**d - 1


def test_factor_int_gives_up_within_its_step_budget():
    with pytest.raises(ScopeError, match="Pollard-Brent"):
        factor_int(100000000000000000039 * 100000000000000000129)


def test_squarefree_kernel_by_direct_factorization():
    rng = random.Random(22)
    for _ in range(150):
        v = Fraction(rng.randint(-500, 500), rng.randint(1, 500))
        if v == 0:
            continue
        k = squarefree_kernel(v)
        # kernel is squarefree
        for q, e in factor_int(abs(k)):
            assert e == 1
        # v / k is a square of a rational
        ratio = v / k
        assert ratio > 0
        num, den = ratio.numerator, ratio.denominator
        assert math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den


def test_squarefree_kernel_known_values():
    assert squarefree_kernel(Fraction(4)) == 1
    assert squarefree_kernel(Fraction(18)) == 2
    assert squarefree_kernel(Fraction(-18)) == -2
    assert squarefree_kernel(Fraction(1, 2)) == 2
    assert squarefree_kernel(Fraction(-27, 50)) == -6


# ---------------------------------------------------------------------------
# finite fields

def test_ff_irreducibility_matches_oracle_f7():
    field = GF(7)
    rng = random.Random(23)
    for _ in range(40):
        f = random_poly(rng, field, 4, min_degree=1)
        assert is_irreducible(f) == oracle_is_irreducible_ff(f), list(f.coeffs)


def test_ff_factor_matches_oracle_small():
    field = GF(5)
    rng = random.Random(24)
    for _ in range(30):
        f = random_poly(rng, field, 4, min_degree=1)
        unit, expected = oracle_factor_ff(f)
        got = factor_over_Fq(f)
        assert got.unit == unit
        assert [(g.coeffs, e) for g, e in got.factors] == [
            (g.coeffs, e) for g, e in expected
        ]


def test_ff_factor_reconstructs_f13():
    field = GF(13)
    rng = random.Random(25)
    for _ in range(30):
        f = random_poly(rng, field, 8, min_degree=1)
        fac = factor_over_Fq(f)
        prod = Poly.constant(field, fac.unit)
        for g, e in fac.factors:
            assert g.is_monic
            assert is_irreducible(g)
            prod = prod * g**e
        assert prod == f


def test_squarefree_decomposition():
    rng = random.Random(26)
    for field in (GF(7), QQ):
        for _ in range(20):
            parts = [
                random_poly(rng, field, 2, min_degree=1, monic=True) for _ in range(2)
            ]
            f = parts[0] * parts[1] ** 2
            dec = squarefree_decomposition(f.monic())
            prod = Poly.one(field)
            for g, m in dec:
                assert g.is_monic
                assert poly_gcd(g, g.derivative()).degree == 0
                prod = prod * g**m
            assert prod == f.monic()


def test_ff_factor_char_p_powers():
    # t^7 - a = (t - a)^7 over F_7: exercises the p-th root step
    field = GF(7)
    for a in range(1, 7):
        f = Poly.from_ints(field, [-a] + [0] * 6 + [1])
        fac = factor_over_Fq(f)
        assert len(fac.factors) == 1
        g, e = fac.factors[0]
        assert e == 7 and g == Poly.from_ints(field, [-a, 1])


def test_distinct_degree_count_matches_full_factorization():
    # the Zassenhaus prime choice counts modular factors from the
    # distinct-degree split alone; the count must be the factor count
    rng = random.Random(28)
    # q = 4 and 16 run the trace split of characteristic 2
    for q in (3, 7, 13, 9, 4, 16):
        field = GF(q)
        elems = list(field.elements())
        checked = 0
        while checked < 15:
            deg = rng.randint(1, 8)
            f = Poly(field, [rng.choice(elems) for _ in range(deg)] + [field.one])
            if poly_gcd(f, f.derivative()).degree != 0:
                continue
            R = factoring._PolyRing(field)
            parts = factoring._distinct_degree(R, f)
            count = sum(g.degree // d for g, d in parts)
            factors = factoring._split(R, parts)
            assert count == len(factors), (q, f)
            prod = Poly.one(field)
            for g in factors:
                prod = prod * g
            assert prod == f, (q, f)
            checked += 1


def test_zassenhaus_without_good_prime_is_out_of_scope(monkeypatch, capsys):
    monkeypatch.setattr(factoring, "_next_prime", lambda n: 10**6)
    with pytest.raises(ScopeError):
        factoring._zassenhaus([104729, 0, 1])
    # the CLI reports it as out of scope (exit 3), not as a bug (exit 4)
    assert main(["ram", "(t^2+104723, t)"]) == 3


def _int_list(f):
    return [c.rep for c in f.coeffs]


def test_int_list_kernel_matches_poly_routines():
    # the shared split on the integer-list ring that factor_over_Q runs on,
    # against the Poly ring of factor_over_Fq on the same polynomial over GF(p)
    rng = random.Random(29)
    for p in (3, 5, 7, 13, 10007):
        field = GF(p)
        checked = 0
        while checked < 12:
            deg = rng.randint(1, 10)
            f = [rng.randrange(p) for _ in range(deg)] + [1]
            F = Poly.from_ints(field, f)
            if poly_gcd(F, F.derivative()).degree != 0:
                continue
            R, RF = factoring._IntListRing(p), factoring._PolyRing(field)
            parts = factoring._distinct_degree(R, f)
            parts_F = factoring._distinct_degree(RF, F)
            assert parts == [(_int_list(g), d) for g, d in parts_F], (p, f)
            assert factoring._split(R, parts) == [
                _int_list(g) for g in factoring._split(RF, parts_F)
            ], (p, f)
            checked += 1
        for _ in range(12):
            a = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
            b = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [1]
            g, s, t = factoring._gf_xgcd(a, b, p)
            A, B = Poly.from_ints(field, a), Poly.from_ints(field, b)
            assert g == _int_list(poly_gcd(A, B))
            combo = Poly.from_ints(field, s) * A + Poly.from_ints(field, t) * B
            assert _int_list(combo) == g
            if g == [1]:
                assert len(s) < len(b) and len(t) < len(a)


def test_factor_over_Q_builds_no_finite_field_objects(monkeypatch):
    # route guard: the modular stage of the factorization over Q runs on
    # integer lists, never on PrimeField, FFElem or the Poly ring of the split
    def no_finite_field(*args, **kwargs):
        raise AssertionError("finite-field objects built while factoring over Q")

    monkeypatch.setattr(factoring, "PrimeField", no_finite_field, raising=False)
    monkeypatch.setattr(fields, "PrimeField", no_finite_field)
    monkeypatch.setattr(FFElem, "__init__", no_finite_field)
    monkeypatch.setattr(factoring, "_PolyRing", no_finite_field)
    factoring._factor_q_monic.cache_clear()
    cases = (
        ([-1, 0, 0, 0, 1], [[-1, 1], [1, 1], [1, 0, 1]]),
        ([1, 0, 0, 0, 1], [[1, 0, 0, 0, 1]]),
        # (t^2 - 2)(t^2 + t + 1)(t^2 + 3)
        ([-6, -6, -5, 1, 2, 1, 1], [[-2, 0, 1], [1, 1, 1], [3, 0, 1]]),
    )
    for f, want in cases:
        fac = factor_over_Q(Poly.from_ints(QQ, f))
        assert [[int(c) for c in g.coeffs] for g, _ in fac.factors] == want


# ---------------------------------------------------------------------------
# rationals

def test_q_factor_matches_known_products():
    rng = random.Random(27)
    for _ in range(40):
        parts = [known_irreducible_Q(rng, 4) for _ in range(rng.randint(1, 3))]
        unit = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2]))
        f = Poly.constant(QQ, unit)
        expected = {}
        for g in parts:
            f = f * g
            key = g.sort_key()
            expected[key] = (g, expected.get(key, (g, 0))[1] + 1)
        fac = factor_over_Q(f)
        assert fac.unit == unit
        want = sorted(expected.values(), key=lambda ge: ge[0].sort_key())
        assert [(g.coeffs, e) for g, e in fac.factors] == [
            (g.coeffs, e) for g, e in want
        ]


def test_q_factor_cyclotomic_like():
    # t^4 + 1 is irreducible over Q; t^4 - 1 = (t-1)(t+1)(t^2+1)
    f = Poly.from_ints(QQ, [1, 0, 0, 0, 1])
    assert is_irreducible(f)
    g = Poly.from_ints(QQ, [-1, 0, 0, 0, 1])
    fac = factor_over_Q(g)
    assert [list(h.coeffs) for h, _ in fac.factors] == [
        [Fraction(-1), Fraction(1)],
        [Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(0), Fraction(1)],
    ]


def test_q_factor_fractional_coefficients():
    # content and unit handling: (t/2 - 1/2)(t + 3) has unit 1/2
    f = Poly(QQ, [Fraction(-3, 2), Fraction(1), Fraction(1, 2)])
    fac = factor_over_Q(f)
    assert fac.unit == Fraction(1, 2)
    assert [list(h.coeffs) for h, _ in fac.factors] == [
        [Fraction(-1), Fraction(1)],
        [Fraction(3), Fraction(1)],
    ]


def test_q_factor_repeated_factors():
    g = Poly.from_ints(QQ, [-2, 1])
    h = Poly.from_ints(QQ, [1, 1, 1])
    f = g**3 * h
    fac = factor_over_Q(f)
    assert [(list(x.coeffs), e) for x, e in fac.factors] == [
        ([Fraction(-2), Fraction(1)], 3),
        ([Fraction(1), Fraction(1), Fraction(1)], 1),
    ]


def test_factor_poly_dispatch():
    assert factor_poly(Poly.from_ints(QQ, [-1, 0, 1])).factors[0][0].field is QQ
    field = GF(7)
    assert factor_poly(Poly.from_ints(field, [-1, 0, 1])).factors[0][0].field is field


def test_zero_and_constant_rejected():
    with pytest.raises(ValueError):
        factor_over_Q(Poly.zero(QQ))
    fac = factor_over_Q(Poly.constant(QQ, Fraction(5)))
    assert fac.unit == 5 and not fac.factors


def test_q_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("t")
    rng = random.Random(30)
    # irreducible over Q but reducible modulo every prime, so every
    # factorization containing one of them goes through recombination
    hard = ([1, 0, 0, 0, 1], [1, 0, -10, 0, 1])
    for _ in range(60):
        coeffs, degree = [rng.choice([-2, -1, 1, 3])], 0
        while degree < 2 or (degree < 7 and rng.random() < 0.6):
            if rng.random() < 0.3:
                part = list(rng.choice(hard))
            else:
                part = [rng.randint(-6, 6) for _ in range(rng.randint(1, 3))]
                part.append(rng.choice([-2, -1, 1, 2, 3]))
            mult = rng.choice([1, 1, 2])
            if degree + mult * (len(part) - 1) > 8:
                continue
            for _ in range(mult):
                coeffs = factoring._zmul(coeffs, part)
            degree += mult * (len(part) - 1)
        fac = factor_over_Q(Poly.from_ints(QQ, coeffs))
        got = sorted(([Fraction(c) for c in g.coeffs], e) for g, e in fac.factors)
        expr = sum(c * x**i for i, c in enumerate(coeffs))
        _, parts = sympy.factor_list(expr, x)
        want = []
        for g, e in parts:
            monic = sympy.Poly(g, x).monic().all_coeffs()[::-1]
            want.append(([Fraction(int(c.p), int(c.q)) for c in monic], e))
        assert got == sorted(want), coeffs


def _monic_mod(coeffs, p):
    coeffs = [int(c) % p for c in coeffs]
    inv = pow(coeffs[-1], -1, p)
    return [c * inv % p for c in coeffs]


# sympy sorts its modular factors with an ordered comparison it deprecates
@pytest.mark.filterwarnings(r"ignore:\s*Ordered comparisons with modular integers")
def test_fq_factor_matches_sympy():
    # p = 2 runs the characteristic-2 trace split; multiplicities p give
    # polynomials with zero derivative
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("t")
    rng = random.Random(31)
    for p in (2, 3, 7, 13):
        field = GF(p)
        for _ in range(25):
            f = Poly.from_ints(field, [rng.randrange(1, p)])
            while f.degree < 1 or (f.degree < 8 and rng.random() < 0.6):
                part = Poly.from_ints(
                    field, [rng.randrange(p) for _ in range(rng.randint(1, 4))] + [1]
                )
                f = f * part ** rng.choice([1, 1, 2, 3])
            ints = [c.rep for c in f.coeffs]
            fac = factor_over_Fq(f)
            got = sorted(([c.rep for c in g.coeffs], e) for g, e in fac.factors)
            expr = sum(c * x**i for i, c in enumerate(ints))
            unit, parts = sympy.factor_list(expr, x, modulus=p)
            want = sorted(
                (_monic_mod(sympy.Poly(g, x).all_coeffs()[::-1], p), e)
                for g, e in parts
            )
            assert got == want, (p, ints)
            assert fac.unit.rep == int(unit) % p, (p, ints)
            irreducible = sympy.Poly(expr, x, modulus=p).is_irreducible
            assert is_irreducible(f) == irreducible, (p, ints)
