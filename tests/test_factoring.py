"""Integer and polynomial factorization against independent oracles.

The finite-field oracle enumerates monic divisors by brute force, so it
is slow but unarguable; it caps the degrees it is asked about.  Over Q
the reference factorizations are built from certificates (linear
polynomials, Eisenstein polynomials, quadratics with nonsquare
discriminant), never from the engine under test.
"""

import hashlib
import itertools
import math
import random
from collections import Counter
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
    squarefree_kernel,
)
from brauercalc.fields import GF, FFElem
from brauercalc.poly import Poly, QQ, _ListRing, _PRIMITIVE_RING, _xgcd
from brauercalc.poly import _gcd, _resultant, poly_gcd, resultant

from _gen import random_poly
from _oracles import factor_over_Q_by_zassenhaus, rational_roots_oracle


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


def test_factor_int_answers_a_repeated_integer_from_its_cache():
    # the cache is keyed by n itself, so the sign of n keeps its unit, and
    # a ScopeError is not cached: the budget is spent again on every call
    n = 2**4 * 3 * 1000003 * (2**31 - 1)
    first = factor_int(n)
    assert factor_int(n) is first
    assert first.factors == ((2, 4), (3, 1), (1000003, 1), (2**31 - 1, 1))
    assert factor_int(-n).factors == first.factors
    assert (factor_int(-n).unit, factor_int(n).unit) == (-1, 1)
    assert factor_int(-12).unit == -1 and factor_int(12).unit == 1
    misses = factor_int.cache_info().misses
    for _ in range(2):
        with pytest.raises(ScopeError, match="Pollard-Brent"):
            factor_int(100000000000000000039 * 100000000000000000129)
    assert factor_int.cache_info().misses == misses + 2


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
            R = _ListRing(field=field)
            dec = [(Poly(field, g), m) for g, m in factoring._squarefree(R, f.monic().coeffs)]
            prod = Poly.one(field)
            for g, m in dec:
                assert g.is_monic
                assert poly_gcd(g, g.derivative()).degree == 0
                prod = prod * g**m
            assert prod == f.monic()
            if field is QQ:
                # the same loop on primitive integer lists
                ints = factoring._squarefree(_PRIMITIVE_RING, f.int_form()[1])
                assert [(Poly.monic_from_ints(tuple(g)), m) for g, m in ints] == dec


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
            R = _ListRing(field=field)
            parts = factoring._distinct_degree(R, f.coeffs)
            count = sum((len(g) - 1) // d for g, d in parts)
            factors = factoring._split(R, parts)
            assert count == len(factors), (q, f)
            prod = Poly.one(field)
            for g in factors:
                prod = prod * Poly(field, g)
            assert prod == f, (q, f)
            checked += 1


def test_zassenhaus_without_good_prime_is_out_of_scope(monkeypatch, capsys):
    monkeypatch.setattr(factoring, "_next_prime", lambda n: 10**6)
    # a quartic, since a quadratic's roots come in closed form with no prime:
    # the rational-root pass stops short of the bound without raising
    f = [104723, 0, 0, 0, 1]
    assert factoring._rational_roots(tuple(f)) == ([], f, False)
    with pytest.raises(ScopeError):
        factoring._zassenhaus(f)
    # the CLI reports it as out of scope (exit 3), not as a bug (exit 4)
    assert main(["ram", "(t^4+104723, t)"]) == 3


def _reps(cs):
    return [c.rep for c in cs]


def _int_list(f):
    return _reps(f.coeffs)


def test_int_list_kernel_matches_poly_routines():
    # the shared split in the ring's integer mode, which factor_over_Q runs
    # on, against its element mode, which factor_over_Fq runs on over
    # extension fields, on the same polynomial over GF(p)
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
            R, RF = _ListRing(p), _ListRing(field=field)
            parts = factoring._distinct_degree(R, f)
            parts_F = factoring._distinct_degree(RF, F.coeffs)
            assert parts == [(_reps(g), d) for g, d in parts_F], (p, f)
            assert factoring._split(R, parts) == [
                _reps(g) for g in factoring._split(RF, parts_F)
            ], (p, f)
            checked += 1
        for _ in range(12):
            a = [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1]
            b = [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [1]
            g, s, t = _ListRing(p).xgcd(a, b)
            A, B = Poly.from_ints(field, a), Poly.from_ints(field, b)
            assert g == _int_list(poly_gcd(A, B))
            combo = Poly.from_ints(field, s) * A + Poly.from_ints(field, t) * B
            assert _int_list(combo) == g
            if g == [1]:
                assert len(s) < len(b) and len(t) < len(a)


def test_int_list_ring_methods_match_poly_routines():
    # every F_p[t] operation on integer lists is a method of the ring's
    # integer mode; each against Poly over GF(p), with inputs in symmetric
    # representation as Hensel lifting passes them, and the one _powmod in
    # both modes
    rng = random.Random(30)
    for p in (3, 7, 13):
        field = GF(p)
        R, RF = _ListRing(p), _ListRing(field=field)
        for _ in range(20):
            a = factoring._ztrunc(
                [rng.randrange(p) for _ in range(rng.randint(0, 6))] + [1], p
            )
            b = factoring._ztrunc(
                [rng.randrange(p) for _ in range(rng.randint(0, 6))]
                + [rng.randrange(1, p)],
                p,
            )
            A, B = Poly.from_ints(field, a), Poly.from_ints(field, b)
            assert R.reduce(a) == _int_list(A)
            assert R.mul(a, b) == _int_list(A * B)
            assert R.sub(a, b) == _int_list(A - B)
            assert R.monic(b) == _int_list(B.monic())
            assert R.derivative(a) == _int_list(A.derivative())
            g, s, t = R.xgcd(a, b)
            assert g == _int_list(poly_gcd(A, B)) == R.gcd(R.reduce(a), R.reduce(b))
            combo = Poly.from_ints(field, s) * A + Poly.from_ints(field, t) * B
            assert _int_list(combo) == g
            f = [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [1]
            F = Poly.from_ints(field, f)
            n = rng.randrange(0, 40)
            want = A**n % F
            assert Poly(field, factoring._powmod(RF, A.coeffs, n, F.coeffs)) == want, (p, a, n, f)
            assert list(factoring._powmod(R, a, n, f)) == _int_list(want), (p, a, n, f)


def test_rings_share_one_division_and_one_extended_euclid():
    # R.divmod against Poly.__divmod__ over the finite fields, and the one
    # extended Euclid over QQ, GF(9), GF(4) and GF(7) on element lists, and
    # over F_7 on integer lists in symmetric representation: a monic g
    # dividing both inputs, with s*a + t*b = g, and the same (g, s, t) in
    # both modes over F_7
    rng = random.Random(31)
    for field in (QQ, GF(9), GF(4), GF(7)):
        R = _ListRing(field=field)
        for _ in range(15):
            c = random_poly(rng, field, 2, height=5)
            a, b = (random_poly(rng, field, 4, height=5) * c for _ in "ab")
            if field.finite:
                qr = R.divmod(a.coeffs, b.coeffs)
                assert tuple(Poly(field, x) for x in qr) == divmod(a, b)
            g, s, t = (Poly(field, x) for x in _xgcd(R, a.coeffs, b.coeffs))
            assert g.is_monic and (a % g).is_zero and (b % g).is_zero, (field, a, b)
            assert s * a + t * b == g and g.degree >= c.degree, (field, a, b)
            if field is GF(7):
                L = _ListRing(7)
                ints = [factoring._ztrunc(_int_list(f), 7) for f in (a, b)]
                q, r = L.divmod(*ints)
                assert (q, r) == tuple(map(_int_list, divmod(a, b)))
                assert _xgcd(L, *ints) == tuple(map(_int_list, (g, s, t)))
    zero = Poly.zero(QQ)
    assert tuple(Poly(QQ, c) for c in _ListRing(field=QQ).xgcd([], [])) == (
        zero, Poly.one(QQ), zero)


def test_factor_over_Q_caches_by_the_integer_form():
    # every scalar multiple of f shares its primitive integer form, and
    # with it one cache entry
    f = Poly.from_ints(QQ, [7919, -3, 0, 11, 1]) * Poly.from_ints(QQ, [-5, 3])
    info = factoring._factor_q_monic.cache_info
    before = info()
    plain = factor_over_Q(f)
    mid = info()
    scaled = factor_over_Q(f * Fraction(3, 2))
    after = info()
    assert (mid.misses - before.misses, mid.hits - before.hits) == (1, 0)
    assert (after.misses - mid.misses, after.hits - mid.hits) == (0, 1)
    assert scaled.factors == plain.factors and scaled.unit == plain.unit * Fraction(3, 2)
    assert [g.degree for g, _ in plain.factors] == [1, 4]


def test_q_factors_keep_their_integer_forms():
    """Each monic factor over Q is built once from its primitive integer
    list, which it keeps as its integer form.  Valuations read that form,
    so it must be the form a fresh Poly with the same coefficients
    computes, and the factors must be Poly.from_ints(QQ, part).monic() of
    those parts, in the order of fresh sort keys.  Seeded products with
    non-unit leading coefficients and repeated roots, such as
    (3t - 2)^2 (2t + 5)."""

    def lin(a, b):
        return Poly.from_ints(QQ, [-a, b])  # b t - a

    rng = random.Random(311)
    cases = [lin(2, 3) ** 2 * lin(-5, 2)]
    for _ in range(40):
        f = Poly.constant(QQ, Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)))
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.6:
                g = lin(rng.randint(-7, 7), rng.randint(1, 6))
            else:
                g = Poly.from_ints(QQ, [rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(2, 5)])
            f = f * g ** rng.randint(1, 3)
        cases.append(f)
    contents = set()
    for f in cases:
        fac = factor_over_Q(f)
        assert fac.expand() == f
        want = []
        for g, mult in fac.factors:
            fresh = Poly(QQ, g.coeffs)
            assert g.int_form() == fresh.int_form(), g
            want.append((Poly.from_ints(QQ, fresh.int_form()[1]).monic(), mult))
            contents.add(g.int_form()[0])
        want.sort(key=lambda gm: Poly(QQ, gm[0].coeffs).sort_key())
        assert fac.factors == tuple(want)
    (g, m), (h, n) = factor_over_Q(cases[0]).factors
    assert (g.int_form(), m, h.int_form(), n) == (
        (Fraction(1, 3), (-2, 3)), 2, (Fraction(1, 2), (5, 2)), 1
    )
    assert len(contents) > 3


def test_q_factors_are_one_shared_object_each():
    """Two different polynomials with the factor t - 3/2 get back the one
    Poly for it, and so do their scalar multiples.  With the caches
    cleared the factors come back as new objects, equal and in the same
    order, over seeded products that take the rational-root pass, the
    closed forms and Zassenhaus, with repeated factors."""
    half = Poly(QQ, [Fraction(-3, 2), Fraction(1)])
    f = Poly.from_ints(QQ, [-3, 2]) * Poly.from_ints(QQ, [1, 0, 1])  # (2t - 3)(t^2 + 1)
    g = Poly.from_ints(QQ, [-3, 2]) ** 2 * Poly.from_ints(QQ, [5, 1]) * Fraction(7, 3)
    shared = [h for p in (f, g, f * 4, g * Fraction(-1, 9))
              for h, _ in factor_over_Q(p).factors if h == half]
    assert len(shared) == 4 and all(h is shared[0] for h in shared)

    rng = random.Random(363)
    cases = [f, g, Poly.from_ints(QQ, [-2, 0, 0, 0, 1]) * Poly.from_ints(QQ, [-1, 1]) ** 3]
    for _ in range(60):
        p = Poly.constant(QQ, Fraction(rng.randint(1, 9), rng.randint(1, 4)))
        for _ in range(rng.randint(1, 4)):
            coeffs = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.randint(1, 4)]
            p = p * Poly.from_ints(QQ, coeffs) ** rng.randint(1, 2)
        cases.append(p)
    before = [factor_over_Q(p).factors for p in cases]
    factoring._factor_q_monic.cache_clear()
    Poly.monic_from_ints.cache_clear()
    after = [factor_over_Q(p).factors for p in cases]
    assert after == before
    assert [[h.sort_key() for h, _ in fs] for fs in after] == [
        [h.sort_key() for h, _ in fs] for fs in before]
    assert all(h is not k for fs, gs in zip(before, after) for (h, _), (k, _) in zip(fs, gs))
    assert sum(len(fs) > 2 for fs in after) > 10 and max(m for fs in after for _, m in fs) > 1


def test_factor_over_Q_builds_no_finite_field_objects(monkeypatch):
    # route guard: the modular stage of the factorization over Q runs on
    # integer lists, never on PrimeField, FFElem or the list ring's element
    # mode over a finite field; the ring is built only in integer mode or
    # over QQ
    def no_finite_field(*args, **kwargs):
        raise AssertionError("finite-field objects built while factoring over Q")

    def ring_over_q_only(m=None, field=None):
        return real_ring(m, field) if field is None or field is QQ else no_finite_field()

    real_ring = factoring._ListRing
    monkeypatch.setattr(factoring, "PrimeField", no_finite_field, raising=False)
    monkeypatch.setattr(fields, "PrimeField", no_finite_field)
    monkeypatch.setattr(FFElem, "__init__", no_finite_field)
    monkeypatch.setattr(factoring, "_ListRing", ring_over_q_only)
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
# the prime search, the squarefree fallback, the lift bound and recombination

# t^32 - 448 t^30 + ... , the minimal polynomial of sqrt 2 + sqrt 3 + sqrt 5 +
# sqrt 7 + sqrt 11 (a Swinnerton-Dyer polynomial): irreducible over Q, yet
# a product of at most 16 factors modulo every prime
SD32 = [
    2000989041197056, 0, -44660812492570624, 0, 183876928237731840, 0,
    -255690851718529024, 0, 172580952324702208, 0, -65892492886671360, 0,
    15459151516270592, 0, -2349014746136576, 0, 239210760462336, 0,
    -16665641517056, 0, 801918722048, 0, -26625650688, 0, 602397952, 0,
    -9028096, 0, 84864, 0, -448, 0, 1,
]


def _product(parts):
    out = [1]
    for part in parts:
        out = factoring._zmul(out, part)
    return out


def factor_corpus():
    """Seeded integer polynomials (lowest degree first) for factor_over_Q."""
    rng = random.Random(32)
    corpus = []
    # linear factors whose roots collide modulo 3, 3*5, 3*5*7 or 3*5*7*11, so
    # that many of the first primes see a repeated factor of a squarefree f
    for _ in range(24):
        r = rng.randint(-20, 20)
        step = rng.choice([3, 15, 105, 1155])
        roots = [r, r + step * rng.choice([-2, -1, 1, 2]), rng.randint(-30, 30)]
        roots = roots[: rng.choice([2, 3])] + [r + step * 3] * rng.choice([0, 1])
        lc = rng.choice([1, 1, 2, 6, -35])
        corpus.append(_product([[lc]] + [[-x, 1] for x in set(roots)]))
    # repeated factors
    for _ in range(24):
        parts = []
        for _ in range(rng.randint(1, 3)):
            part = [rng.randint(-9, 9) for _ in range(rng.randint(1, 2))] + [
                rng.choice([1, 2, 3])
            ]
            parts += [part] * rng.randint(1, 3)
        corpus.append(_product(parts))
    # irreducible quartics: Eisenstein ones, and biquadratic ones, which
    # split modulo every prime, alone and in products that need
    # recombination of pairs; t^4 + 4 = (t^2 - 2t + 2)(t^2 + 2t + 2)
    for _ in range(12):
        p = rng.choice([2, 3, 5])
        tail = [p * rng.randint(-4, 4) for _ in range(4)]
        tail[0] = p * rng.choice([-7, -1, 1, 7])
        corpus.append(tail + [1])
    hard = ([1, 0, 0, 0, 1], [1, 0, -10, 0, 1], [9, 0, -14, 0, 1], [4, 0, 0, 0, 1])
    for _ in range(12):
        parts = rng.sample(hard, rng.randint(1, 2))
        parts += [[rng.randint(-9, 9), 1]] * rng.randint(0, 1)
        corpus.append(_product(parts))
    # a factor whose coefficients are near the lifting bound: (t - a)(t -+ 1)
    # has |f|_2 about sqrt(2) |a|, and (t^2 + c t - c + e)(t + 1) about
    # sqrt(2) |c|
    for _ in range(12):
        a = rng.choice([-1, 1]) * rng.randint(10**3, 10**15)
        corpus.append(_product([[-a, 1], [rng.choice([-1, 1]), 1]]))
        c = rng.choice([-1, 1]) * rng.randint(10**3, 10**12)
        e = rng.randint(-3, 3)
        corpus.append(_product([[-c + e, c, 1], [1, 1]]))
    return corpus


def _factorization_digest(polys):
    rows = []
    for coeffs in polys:
        fac = factor_over_Q(Poly.from_ints(QQ, coeffs))
        factors = [([str(c) for c in g.coeffs], e) for g, e in fac.factors]
        rows.append((str(fac.unit), factors))
    return hashlib.sha256(repr(rows).encode()).hexdigest()


# _factorization_digest(factor_corpus()) as computed by the Zassenhaus
# pipeline before its single prime search, which ran a squarefree
# decomposition over Q first, took the best of four primes and lifted to a
# 2^n bound; the leaner pipeline must give the same factorizations
CORPUS_DIGEST = "25ce7f4b5b5dca73018e3f2752d005f34f4552937b9b85834f1bddd2ebdb4eb9"


def test_factor_over_Q_corpus_digest_is_pinned():
    factoring._factor_q_monic.cache_clear()
    corpus = factor_corpus()
    for coeffs in corpus:
        f = Poly.from_ints(QQ, coeffs)
        prod = Poly.constant(QQ, factor_over_Q(f).unit)
        for g, e in factor_over_Q(f).factors:
            prod = prod * g**e
        assert prod == f, coeffs
    assert _factorization_digest(corpus) == CORPUS_DIGEST


def test_swinnerton_dyer_32_is_irreducible():
    factoring._factor_q_monic.cache_clear()
    assert is_irreducible(Poly.from_ints(QQ, SD32))


def test_recombination_budget_is_out_of_scope(monkeypatch):
    # SD32 walks 39202 subsets, 256 of which pass the trailing-coefficient test
    monkeypatch.setattr(factoring, "_RECOMBINATION_BUDGET", 8)
    with pytest.raises(ScopeError, match="recombination"):
        factoring._zassenhaus(SD32)


def test_ram_of_swinnerton_dyer_32_exits_3(capsys):
    # the degree-64 norm polynomial at the root of SD32 splits into 22
    # factors mod 19: about 2^21 subsets, past the recombination budget
    text = "+".join(f"{c}*t^{i}" for i, c in enumerate(SD32) if c).replace("+-", "-")
    assert main(["ram", f"({text}, t)"]) == 3
    assert "recombination" in capsys.readouterr().err


def test_equal_degree_draw_budget_is_out_of_scope(monkeypatch):
    monkeypatch.setattr(factoring, "_SPLIT_DRAWS", 0)
    field = GF(5)
    with pytest.raises(ScopeError, match="equal-degree"):
        factor_over_Fq(Poly.from_ints(field, [2, -3, 1]))
    factoring._factor_q_monic.cache_clear()
    # t^4 + 1 has no rational root, so it reaches Zassenhaus, and splits
    # into two quadratics modulo 3, the prime it is lifted from
    with pytest.raises(ScopeError, match="equal-degree"):
        factor_over_Q(Poly.from_ints(QQ, [1, 0, 0, 0, 1]))


def _is_squarefree_by_fractions(ints):
    f = Poly.from_ints(QQ, ints)
    return len(_gcd(_ListRing(field=QQ), f.coeffs, f.derivative().coeffs)) == 1


def test_prime_search_and_zassenhaus_see_only_squarefree_input(monkeypatch):
    # route guard: every cofactor is split into squarefree parts on integer
    # lists before Zassenhaus, whose prime search never proves squarefreeness
    seen = []
    for name in ("_prime_search", "_zassenhaus"):
        real = getattr(factoring, name)

        def record(f, real=real, name=name):
            seen.append(name)
            assert _is_squarefree_by_fractions(f), (name, f)
            return real(f)

        monkeypatch.setattr(factoring, name, record)
    # (t^2 + 1)^2 (t^2 + 2): no rational root, and repeated modulo every prime
    f = _product([[1, 0, 1], [1, 0, 1], [2, 0, 1]])
    cases = [(f, [([1, 0, 1], 2), ([2, 0, 1], 1)])]
    rng = random.Random(36)
    irreducibles = ([1, 0, 1], [2, 0, 1], [1, 1, 1], [-2, 0, 0, 1], [1, 0, 0, 0, 1], [3, 1, 0, 1])
    for _ in range(12):
        chosen = rng.sample(irreducibles, rng.randint(1, 3))
        mults = [rng.randint(1, 3) for _ in chosen]
        parts = [[rng.randint(-3, 3), 1]] + [g for g, m in zip(chosen, mults) for _ in range(m)]
        cases.append((_product(parts), None))
    factoring._factor_q_monic.cache_clear()
    for coeffs, want in cases:
        fac = factor_over_Q(Poly.from_ints(QQ, coeffs))
        if want is not None:
            assert [(list(map(int, g.coeffs)), e) for g, e in fac.factors] == want
        prod = Poly.constant(QQ, fac.unit)
        for g, e in fac.factors:
            prod = prod * g**e
        assert prod == Poly.from_ints(QQ, coeffs)
    assert "_prime_search" in seen and "_zassenhaus" in seen


def test_quadratic_cofactor_is_decided_by_its_discriminant(monkeypatch):
    # 2t^2 - 9t - 3 and 8t^2 + 3t - 3 (discriminant 105) see a double root
    # mod 3, 5 and 7; a discriminant that is no square proves them
    # irreducible with neither the squarefree loop nor Zassenhaus
    want = {}
    for coeffs in ([-3, -9, 2], [-3, 3, 8]):
        want[tuple(coeffs)] = factor_over_Q_by_zassenhaus(Poly.from_ints(QQ, coeffs))

    def refuse(*args):
        raise AssertionError(f"squarefree loop or Zassenhaus on {args}")

    for name in ("_squarefree", "_zassenhaus"):
        monkeypatch.setattr(factoring, name, refuse)
    factoring._factor_q_monic.cache_clear()
    for coeffs, factors in want.items():
        f = Poly.from_ints(QQ, list(coeffs))
        assert list(factor_over_Q(f).factors) == factors == [(f.monic(), 1)]


def test_rational_linear_factors_need_no_zassenhaus(monkeypatch):
    # route guard: the rational-root pass alone splits products of rational
    # linear factors, repeated roots and root 0 included, with no squarefree
    # loop over Q.  Integer roots in [-6, 6] cannot collide modulo all three
    # primes the pass tries
    def refuse(*args, **kwargs):
        raise AssertionError("Zassenhaus route taken for rational linear factors")

    for name in ("_hensel_lift", "_prime_search", "_squarefree"):
        monkeypatch.setattr(factoring, name, refuse)
    factoring._factor_q_monic.cache_clear()
    rng = random.Random(35)
    cases = [{Fraction(1, 2): 2, Fraction(-2, 3): 1, 0: 3}]
    for _ in range(60):
        roots = rng.sample(range(-6, 7), rng.randint(1, 4))
        cases.append({r: rng.choice([1, 1, 2, 3]) for r in roots})
    for roots in cases:
        f = Poly.constant(QQ, Fraction(rng.choice([1, -2, 3]), rng.choice([1, 5])))
        for r, mult in roots.items():
            f = f * Poly(QQ, [-Fraction(r), Fraction(1)]) ** mult
        got = {-g.coeffs[0]: e for g, e in factor_over_Q(f).factors}
        assert got == roots, roots
        assert all(g.degree == 1 for g, _ in factor_over_Q(f).factors)


def rational_root_corpus():
    """Seeded integer polynomials (lowest degree first) for the rational-root
    pass: rational linear factors with repeated roots and root 0, roots r
    and r + 5*7*11 that collide modulo the first primes above the degree,
    products of two irreducible quadratics, and irreducible cubics."""
    rng = random.Random(33)
    quadratics = ([1, 0, 1], [2, 0, 1], [-2, 0, 1], [1, 1, 1], [-3, 0, 1], [-1, -1, 1])
    cubics = ([-2, 0, 0, 1], [1, 1, 0, 1], [1, -3, 0, 1], [-3, 0, 0, 2], [1, -2, -1, 1])
    corpus = []
    for _ in range(150):
        parts = [[rng.choice([1, 1, 2, 6, 35])]]
        r = rng.randint(-9, 9)
        step = rng.choice([1, 5, 35, 385, 5005]) * rng.choice([-1, 1])
        roots = [r, r + step, 0, rng.randint(-20, 20)]
        den = rng.choice([1, 1, 2, 3])
        for x in roots[:2] + rng.sample(roots[2:], rng.randint(0, 2)):
            parts += [[-x, den]] * rng.choice([1, 1, 2, 3])
        extra = rng.random()
        if extra < 0.3:
            parts += rng.sample(quadratics, 2)
        elif extra < 0.5:
            parts.append(rng.choice(cubics))
        elif extra < 0.7:
            parts.append(rng.choice(quadratics))
        corpus.append(_product(parts))
    for a, b in itertools.combinations(quadratics, 2):
        corpus.append(_product([a, b]))
    corpus.extend(cubics)
    return corpus


def test_rational_root_pass_matches_zassenhaus():
    factoring._factor_q_monic.cache_clear()
    for coeffs in rational_root_corpus():
        f = Poly.from_ints(QQ, coeffs)
        got = [(g.coeffs, e) for g, e in factor_over_Q(f).factors]
        want = [(g.coeffs, e) for g, e in factor_over_Q_by_zassenhaus(f)]
        assert got == want, coeffs
    # a degree-4 cofactor without a rational root is not taken as irreducible
    for a, b in ((1, 2), (-2, -3), (1, -2)):
        f = Poly.from_ints(QQ, _product([[a, 0, 1], [b, 0, 1], [0, 1]]))
        assert [g.degree for g, _ in factor_over_Q(f).factors] == [1, 2, 2]


def _bench_linear(rng):
    """b t - a for a bench root a/b: |a| <= 8, b <= 3."""
    return [-rng.randint(-8, 8), rng.choice([1, 1, 1, 2, 3])]


def _quadratic(rng, disc):
    """[c, b, a], a > 0, whose discriminant b^2 - 4ac is of the kind disc."""
    if disc == "square":
        return _product([[rng.randint(-9, 9), rng.randint(1, 4)] for _ in range(2)])
    if disc == "zero":
        lin = [rng.randint(-9, 9), rng.randint(1, 4)]
        return _product([lin, lin])
    while True:
        c, b, a = rng.randint(-30, 30), rng.randint(-30, 30), rng.randint(1, 9)
        d = b * b - 4 * a * c
        if disc == "negative" and d < 0 or disc == "non-square" and d > math.isqrt(max(d, 0)) ** 2:
            return [c, b, a]


def integer_root_corpus(n=2400):
    """(kind, f) for n seeded primitive integer lists f of degree 1 to 6
    with lc(f) > 0, in five kinds taken in turn: bench-shaped products of a
    unit and up to four linear factors; quadratics whose discriminant is a
    square, zero, negative or a positive non-square, some times a unit; one
    to three roots at 0 times linear factors or a quadratic; linear factors
    times a dense non-monic quadratic or cubic; dense polynomials with
    entries in [-20, 20] and a leading entry other than 1."""
    rng = random.Random(337)
    discs = ("square", "zero", "negative", "non-square")
    corpus = []
    while len(corpus) < n:
        kind = ("bench", "quadratic", "root 0", "mixed", "dense")[len(corpus) % 5]
        unit = [rng.choice([-1, 1]) * rng.randint(1, 10)]
        if kind == "bench":
            parts = [unit] + [_bench_linear(rng) for _ in range(rng.randint(1, 4))]
        elif kind == "quadratic":
            kind = discs[len(corpus) // 5 % 4]
            parts = [unit, _quadratic(rng, kind)]
        elif kind == "root 0":
            parts = [[0, 1]] * rng.randint(1, 3)
            parts += rng.choice([[_bench_linear(rng)], [_quadratic(rng, rng.choice(discs))], []])
        elif kind == "mixed":
            parts = [_bench_linear(rng) for _ in range(rng.randint(1, 3))]
            parts.append([rng.randint(-9, 9) for _ in range(rng.randint(2, 3))] + [rng.randint(2, 6)])
        else:
            parts = [[rng.randint(-20, 20) for _ in range(rng.randint(1, 6))] + [rng.randint(2, 20)]]
        f = _product(parts)
        if 1 <= len(f) - 1 <= 6:
            corpus.append((kind, tuple(factoring._int_list_primitive(f))))
    return corpus


def test_rational_roots_match_the_rational_root_theorem():
    """Every root _rational_roots returns is one of f's with its whole
    multiplicity, as a primitive linear factor; the factors and the cofactor
    multiply back to f; a certain answer lists every rational root, and
    every f of degree at most 2 (after t^z) is certain."""
    seen = Counter()
    for kind, f in integer_root_corpus():
        roots, cofactor, certain = factoring._rational_roots(f)
        back = list(cofactor)
        for lin, mult in roots:
            assert len(lin) == 2 and lin[1] > 0 and math.gcd(*lin) == 1, (f, lin)
            back = _product([back] + [lin] * mult)
        assert back == list(f), f
        got = {Fraction(-lin[0], lin[1]): mult for lin, mult in roots}
        want = rational_roots_oracle(f)
        assert len(got) == len(roots) and got.items() <= want.items(), f
        assert not certain or got == want, f
        if len(cofactor) <= 3:
            assert certain, f
        seen[kind] += 1
        seen["certain"] += certain
        seen["root 0 found"] += Fraction(0) in got
        seen["non-monic"] += f[-1] > 1
    assert min(seen[kind] for kind in ("bench", "mixed", "dense")) >= 480, seen
    assert min(seen[d] for d in ("square", "zero", "negative", "non-square")) >= 120, seen
    assert seen["root 0 found"] >= 480 and seen["non-monic"] >= 1200, seen
    assert seen["certain"] >= 2300, seen


def test_factor_over_Q_linear_factors_match_the_rational_root_theorem():
    """factor_over_Q of every corpus form times a rational unit multiplies
    back to it, and its linear factors are the oracle's roots."""
    rng = random.Random(339)
    factoring._factor_q_monic.cache_clear()
    for _, f in integer_root_corpus():
        F = Poly.from_ints(QQ, f) * Fraction(rng.choice([1, -2, 7]), rng.choice([1, 3]))
        fac = factor_over_Q(F)
        back = Poly.constant(QQ, fac.unit)
        for g, e in fac.factors:
            back = back * g**e
        assert back == F, f
        linear = {-g.coeffs[0]: e for g, e in fac.factors if g.degree == 1}
        assert linear == rational_roots_oracle(f), f


def test_integer_root_corpus_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("t")
    factoring._factor_q_monic.cache_clear()
    for _, f in integer_root_corpus():
        _, parts = sympy.Poly(f[::-1], x, domain="ZZ").factor_list()
        want = sorted(
            ([Fraction(int(c), int(g.LC())) for c in g.all_coeffs()[::-1]], e) for g, e in parts
        )
        assert _factors(list(f)) == want, f


def test_quadratic_roots_make_no_hasse_call(monkeypatch):
    """A linear or quadratic form, after t^z, is decided in closed form."""

    def refuse(*args):
        raise AssertionError("Hasse derivative built for a quadratic")

    monkeypatch.setattr(factoring, "_hasse", refuse)
    cases = {
        (6, 5, 1): ([([2, 1], 1), ([3, 1], 1)], [1], True),
        (9, 12, 4): ([([3, 2], 2)], [1], True),
        (-2, 0, 1): ([], [-2, 0, 1], True),
        (3, 1, 2): ([], [3, 1, 2], True),
        (0, 0, -9, 0, 4): ([([0, 1], 2), ([-3, 2], 1), ([3, 2], 1)], [1], True),
        (0, 5, 3): ([([0, 1], 1), ([5, 3], 1)], [1], True),
    }
    for f, want in cases.items():
        assert factoring._rational_roots(f) == want, f


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
    for field in (GF(7), GF(9)):
        c = field.element_at(5)
        fac = factor_over_Fq(Poly.constant(field, c))
        assert fac.unit == c and not fac.factors


def _factors(coeffs):
    fac = factor_over_Q(Poly.from_ints(QQ, coeffs))
    return sorted(([Fraction(c) for c in g.coeffs], e) for g, e in fac.factors)


def _sympy_factors(sympy, coeffs):
    x = sympy.Symbol("t")
    _, parts = sympy.factor_list(sum(c * x**i for i, c in enumerate(coeffs)), x)
    want = []
    for g, e in parts:
        monic = sympy.Poly(g, x).monic().all_coeffs()[::-1]
        want.append(([Fraction(int(c.p), int(c.q)) for c in monic], e))
    return sorted(want)


def test_q_factor_matches_sympy():
    sympy = pytest.importorskip("sympy")
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
        assert _factors(coeffs) == _sympy_factors(sympy, coeffs), coeffs


def test_rational_root_pass_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for coeffs in rational_root_corpus():
        assert _factors(coeffs) == _sympy_factors(sympy, coeffs), coeffs


def test_squarefree_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(34)
    for _ in range(200):
        num = rng.randint(1, 10**9) * rng.randint(1, 10**3) ** 2
        v = Fraction(rng.choice([-1, 1]) * num, rng.randint(1, 10**6))
        want = 1 if v > 0 else -1
        for n in (v.numerator, v.denominator):
            for q, e in sympy.factorint(abs(n)).items():
                want *= q ** (e % 2)
        assert squarefree_kernel(v) == want, v


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


# ---------------------------------------------------------------------------
# factor_over_Fq over a prime field, on integer representatives


def _poly_ring_factorization(f):
    """factor_over_Fq's algorithm run on the element lists of f, in a
    _ListRing(field=F) built here, with no cache."""
    R = _ListRing(field=f.field)
    hs = [(h, m) for g, m in factoring._squarefree(R, R.monic(list(f.coeffs)))
          for h in factoring._split(R, factoring._distinct_degree(R, g))]
    hs.sort(key=lambda hm: R.sort_key(hm[0]))
    return f.lc, tuple((Poly(f.field, h), m) for h, m in hs)


def test_prime_field_factoring_matches_the_poly_ring():
    rng = random.Random(41)
    for p in (2, 3, 7, 13, 101):
        field = GF(p)
        cases = [Poly.from_ints(field, [rng.randrange(p), rng.randrange(1, p)])]
        for _ in range(25):
            cases.append(random_poly(rng, field, 8, min_degree=1))
            g = random_poly(rng, field, 3, min_degree=1)
            h = random_poly(rng, field, 2, min_degree=1, monic=True)
            cases.append(g * h ** rng.randint(2, 4))  # repeated factors
            # f' = 0: t^p - a times g, and g(t^p) * h^p
            a = rng.randrange(p)
            cases.append(Poly.from_ints(field, [-a] + [0] * (p - 1) + [1]) * g)
            spread = [field.zero] * (p * g.degree + 1)
            spread[::p] = g.coeffs
            cases.append(Poly(field, spread) * h**p)
        for f in cases:
            fac = factor_over_Fq(f)
            assert (fac.unit, fac.factors) == _poly_ring_factorization(f), (p, f)
            assert fac.expand() == f
            assert all(g.field is field for g, _ in fac.factors)


def test_prime_field_factoring_is_cached_by_the_monic_representatives():
    # one cache for every finite field, keyed by the monic representatives:
    # a scalar multiple hits it, over GF(7) and over GF(9)
    info = factoring._factor_fq_monic.cache_info
    for field in (GF(7), GF(9)):
        f = Poly.from_ints(field, [3, 0, 1, 5]) * Poly.from_ints(field, [1, 1]) ** 2
        c = field.element_at(field.order - 1)
        factoring._factor_fq_monic.cache_clear()
        plain = factor_over_Fq(f)
        scaled = factor_over_Fq(f * c)
        assert (info().misses, info().hits) == (1, 1), field
        assert scaled.factors == plain.factors and scaled.unit == plain.unit * c


def test_prime_fields_are_factored_without_the_poly_ring(monkeypatch):
    # route guard: over GF(p) factoring runs on GF(p).list_ring, the ring's
    # integer mode (m == p), and divides no element lists; so does GF's
    # search for an irreducible modulus of degree 12 over F_7
    field = GF(7)
    assert field.list_ring.m == 7
    real_divmod, rings = _ListRing.divmod, set()

    def integer_mode_only(R, a, b):
        if not R.m:
            raise AssertionError("an element-list division over a prime field")
        rings.add(R)
        return real_divmod(R, a, b)

    monkeypatch.setattr(_ListRing, "divmod", integer_mode_only)
    f = Poly.from_ints(field, [1, 0, 0, 0, 0, 0, 0, 1]) * Poly.from_ints(field, [3, 1, 1])
    assert factor_over_Fq(f).expand() == f
    big = fields.GF.__wrapped__(7**12)
    assert big.order == 7**12 and big.modulus == GF(7**12).modulus
    assert rings == {field.list_ring}


@pytest.mark.parametrize("q", [2, 4, 7, 9, 13, 49])
def test_finite_field_routes_match_the_element_ring(q):
    """poly_gcd, resultant, divmod and factor_over_Fq over GF(q) run on
    GF(q).list_ring, integers mod p over a prime field; each matches the
    same algorithm on element lists in a _ListRing(field=GF(q)) built here,
    on seeded polynomials with zero and constant operands, and hands back
    FFElems of GF(q) only."""
    field = GF(q)
    E, rng = _ListRing(field=field), random.Random(4900 + q)
    polys = [Poly.zero(field), Poly.one(field), Poly.constant(field, field.element_at(q - 1))]
    polys += [random_poly(rng, field, 6) for _ in range(8)]
    common = random_poly(rng, field, 2, min_degree=1)
    polys += [random_poly(rng, field, 3) * common for _ in range(4)]

    def coeffs(h):
        assert all(type(c) is FFElem and c.field is field for c in h.coeffs), h
        return h.coeffs

    for f in polys:
        a = list(f.coeffs)
        for g in polys:
            b = list(g.coeffs)
            assert coeffs(poly_gcd(f, g)) == tuple(_gcd(E, a, b)), (f, g)
            if not f.is_zero:
                res = resultant(f, g)
                assert type(res) is FFElem and res.field is field, (f, g)
                assert res == _resultant(E, a, b), (f, g)
            if not g.is_zero:
                quo, rem = divmod(f, g)
                assert (coeffs(quo), coeffs(rem)) == tuple(map(tuple, E.divmod(a, b))), (f, g)
        if not f.is_zero:
            fac = factor_over_Fq(f)
            assert all(coeffs(h) for h, _ in fac.factors)
            assert (fac.unit, fac.factors) == _poly_ring_factorization(f), f
