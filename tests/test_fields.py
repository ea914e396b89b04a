"""Finite fields, quotient fields, and multiplicative structure."""

import itertools
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from brauercalc import fields
from brauercalc.errors import ScopeError
from brauercalc.fields import (
    GF,
    PSI13,
    PrimeField,
    QuotientField,
    discrete_log,
    is_prime,
    is_pth_power_finite,
    multiplicative_generator,
    pth_power_exponent,
    rational_is_square,
    rational_sqrt,
)
from brauercalc.poly import Poly, QQ, poly_xgcd

from _gen import random_poly


def test_gf_prime_arithmetic():
    f7 = GF(7)
    a, b = f7.from_int(3), f7.from_int(5)
    assert (a + b).rep == 1
    assert (a * b).rep == 1
    assert (a - b).rep == 5
    assert (1 - a).rep == 5
    assert (a / b).rep == (3 * pow(5, 5, 7)) % 7
    assert (a ** (-1) * a) == f7.one


def test_gf_rejects_non_prime_power():
    for q in (6, 1, 0, -4, 12, 2 * 1000003):
        with pytest.raises(ValueError, match="is not a prime power"):
            GF(q)
    assert GF(2**5).order == 32


def test_gf_modulus_and_generator_are_pinned():
    # the modulus search and the generator fix every F_q label and exponent
    # in reports; (modulus coefficients, generator representative), low
    # degree first
    pinned = {
        4: ([1, 1, 1], [0, 1]),
        8: ([1, 0, 1, 1], [0, 0, 1]),
        9: ([1, 0, 1], [1, 1]),
        16: ([1, 0, 0, 1, 1], [0, 0, 1, 0]),
        25: ([1, 1, 1], [1, 3]),
        27: ([1, 0, 2, 1], [0, 0, 2]),
        49: ([1, 0, 1], [1, 2]),
    }
    for q, (modulus, gen) in pinned.items():
        field = GF(q)
        assert [c.rep for c in field.modulus.coeffs] == modulus, q
        assert list(multiplicative_generator(field).rep) == gen, q


def test_element_at_follows_elements_order():
    # element_at(i) is the i-th of elements() without listing the field, and
    # elements() keeps its order: base digits, constant coefficient first
    for q in (7, 8, 9, 49):
        field = GF(q)
        elems = list(field.elements())
        assert len(elems) == q
        assert all(field.element_at(i) == e for i, e in enumerate(elems)), q
        if q > 7:
            base = list(field.base.elements())
            tails = itertools.product(base, repeat=field.degree)
            assert [e.rep for e in elems] == list(tails), q


def test_gf_is_cached():
    assert GF(49) is GF(49)


def test_gf_extension_field_axioms():
    f49 = GF(49)
    rng = random.Random(31)
    elems = list(f49.elements())
    assert len(elems) == 49
    for _ in range(40):
        a, b, c = (elems[rng.randrange(49)] for _ in range(3))
        assert (a + b) * c == a * c + b * c
        if a:
            assert a * a ** (-1) == f49.one


def test_frobenius_fixes_prime_field_only():
    f49 = GF(49)
    fixed = [e for e in f49.elements() if e**49 == e]
    assert len(fixed) == 49
    fixed7 = [e for e in f49.elements() if e**7 == e]
    assert len(fixed7) == 7


def test_multiplicative_generator_order():
    for q in (5, 7, 13, 9, 25):
        field = GF(q)
        g = multiplicative_generator(field)
        seen = set()
        x = field.one
        for _ in range(q - 1):
            x = x * g
            seen.add(field.element_key(x))
        assert len(seen) == q - 1


def test_discrete_log_inverts_power():
    for q in (7, 13, 9):
        field = GF(q)
        g = multiplicative_generator(field)
        for k in range(q - 1):
            assert discrete_log(g**k) == k
        # the walk keeps no table on the field
        assert not hasattr(field, "_log_table")


def test_pth_power_predicates():
    f7 = GF(7)
    squares = {(x * x).rep for x in f7.elements() if x}
    for x in f7.elements():
        if not x:
            continue
        assert is_pth_power_finite(x, 2) == (x.rep in squares)
    f13 = GF(13)
    cubes = {f13.element_key(x**3) for x in f13.elements() if x}
    for x in f13.elements():
        if not x:
            continue
        assert is_pth_power_finite(x, 3) == (f13.element_key(x) in cubes)


def test_every_unit_is_a_pth_power_when_p_does_not_divide_q_minus_1():
    # x -> x^p permutes the units, so the test says yes and the exponent is 0
    for q, p in ((7, 5), (8, 3), (9, 5), (13, 5), (49, 5)):
        field = GF(q)
        assert (q - 1) % p
        for e in field.elements():
            if e:
                assert is_pth_power_finite(e, p) and pth_power_exponent(e, p) == 0, (q, p, e)


def test_pth_power_exponent_consistency():
    # the projection onto the p-part against the full discrete log
    for q, p in ((13, 3), (7, 2), (7, 3), (9, 2), (49, 2), (49, 3)):
        field = GF(q)
        g = multiplicative_generator(field)
        for k in range(q - 1):
            e = g**k
            m = pth_power_exponent(e, p)
            assert m == k % p == discrete_log(e) % p, (q, p, k)
            assert is_pth_power_finite(e / g**m, p)


def test_norm_matches_conjugate_product():
    # Res(modulus, rep) against the product of Frobenius conjugates
    for q, d in ((7, 2), (5, 3)):
        base = GF(q)
        ext = GF(q**d)
        rng = random.Random(32)
        elems = list(ext.elements())
        for _ in range(25):
            e = elems[rng.randrange(len(elems))]
            if not e:
                continue
            conj = ext.one
            for i in range(d):
                conj = conj * e ** (q**i)
            n = ext.norm(e)
            assert ext.coerce(n) == conj
            assert n.field is base
        assert ext.norm(ext.zero) == base.zero


def test_norm_multiplicative_number_field():
    pi = Poly.from_ints(QQ, [-2, 0, 1])  # t^2 - 2
    kappa = QuotientField(QQ, pi)
    rng = random.Random(33)
    for _ in range(25):
        a = kappa.from_poly(random_poly(rng, QQ, 1, 9))
        b = kappa.from_poly(random_poly(rng, QQ, 1, 9))
        if not (a and b):
            continue
        assert kappa.norm(a * b) == kappa.norm(a) * kappa.norm(b)
    assert kappa.norm(kappa.zero) == 0
    # norm of a constant c is c^degree
    assert kappa.norm(kappa.from_int(3)) == 9
    # norm of sqrt(2) is -2: Res(t^2-2, t) = -2
    assert kappa.norm(kappa.gen_elem()) == -2


def test_quotient_field_inverse_and_division():
    pi = Poly.from_ints(QQ, [1, 1, 1])  # t^2 + t + 1
    kappa = QuotientField(QQ, pi)
    theta = kappa.gen_elem()
    e = theta + kappa.from_int(2)
    assert e * e ** (-1) == kappa.one
    # theta^3 = 1 since t^3 - 1 = (t - 1)(t^2 + t + 1)
    assert theta**3 == kappa.one


def test_quotient_field_to_from_poly_roundtrip():
    field = GF(7)
    pi = Poly.from_ints(field, [3, 1, 1])
    assert pi.degree == 2
    kappa = QuotientField(field, pi)
    rng = random.Random(34)
    for _ in range(20):
        f = random_poly(rng, field, 3)
        e = kappa.from_poly(f)
        assert kappa.from_poly(kappa.to_poly(e)) == e


def test_format_element_prime_subfield():
    f49 = GF(49)
    assert f49.format_element(f49.from_int(3)) == "3"
    gen = f49.gen_elem()
    assert f49.format_element(gen).startswith("[")


def _xgcd_inverse(kappa, e):
    """Inverse by the extended Euclidean algorithm, the route of other degrees."""
    g, s, _ = poly_xgcd(kappa.to_poly(e), kappa.modulus)
    assert g.degree == 0
    return kappa.from_poly(s)


def _quadratic_fields():
    """(base[t]/(t^2 + bt + c), base elements or None) over QQ, F_7 and F_9."""
    rng = random.Random(71)
    out = []
    for base, elems in ((QQ, None), (GF(7), list(GF(7).elements())),
                        (GF(9), list(GF(9).elements()))):
        found = 0
        while found < 3:
            if elems is None:
                b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if rational_is_square(b * b - 4 * c):
                    continue
            else:
                b, c = rng.choice(elems), rng.choice(elems)
                if not all(r * r + b * r + c for r in elems):
                    continue
            out.append((QuotientField(base, Poly(base, [c, b, base.one])), elems))
            found += 1
    return out


def test_quadratic_inverse_matches_xgcd():
    rng = random.Random(72)
    checked = 0
    for kappa, elems in _quadratic_fields():
        base = kappa.base
        for _ in range(25):
            if elems is None:
                rep = [Fraction(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(2)]
            else:
                rep = [rng.choice(elems) for _ in range(2)]
            e = kappa.from_poly(Poly(base, rep))
            if not e:
                with pytest.raises(ZeroDivisionError, match="inverse of zero"):
                    e.inverse()
                continue
            inv = e.inverse()
            assert inv == _xgcd_inverse(kappa, e)
            assert e * inv == kappa.one
            checked += 1
    assert checked >= 150


def test_prime_base_products_match_poly_reduction():
    # QuotientField over GF(p) multiplies integer representatives; products
    # and sums against the Poly ones reduced mod the modulus, products as
    # length-d tuples of ints in [0, p)
    rng = random.Random(73)
    kappas = [GF(49), GF(169), GF(7**3)]
    kappas += [kappa for kappa, _ in _quadratic_fields() if kappa.base is GF(7)]
    kappas.append(QuotientField(GF(13), Poly.from_ints(GF(13), [2, 0, 1])))
    for kappa in kappas:
        base, d = kappa.base, kappa.degree
        for _ in range(40):
            a, b = (
                kappa.element_at(rng.choice([0, 1, rng.randrange(kappa.order)]))
                for _ in range(2)
            )
            A, B = kappa.to_poly(a), kappa.to_poly(b)
            assert a * b == kappa.from_poly(A * B), (kappa, a, b)
            assert a + b == kappa.from_poly(A + B), (kappa, a, b)
            assert all(type(c) is int and 0 <= c < base.p for c in (a * b).rep)
            assert len((a * b).rep) == d


def test_q_and_extension_base_products_match_poly_reduction():
    # the same schoolbook product over QQ and over F_9, where zero
    # coordinates are common; coordinates stay Fractions or F_9 elements
    rng = random.Random(74)
    kappas = [QuotientField(QQ, Poly.from_ints(QQ, [-2, 0, 1])),
              QuotientField(QQ, Poly(QQ, [Fraction(1, 2), Fraction(1, 3), 0, 1]))]
    kappas += [kappa for kappa, _ in _quadratic_fields() if kappa.base is GF(9)]
    for kappa in kappas:
        base, d = kappa.base, kappa.degree
        for _ in range(40):
            a, b = (kappa.from_poly(random_poly(rng, base, d - 1, 3)) * rng.randint(0, 1)
                    for _ in range(2))
            A, B = kappa.to_poly(a), kappa.to_poly(b)
            prod = a * b
            assert prod == kappa.from_poly(A * B), (kappa, a, b)
            assert len(prod.rep) == d
            assert all(type(c) is type(base.zero) for c in prod.rep), prod.rep
    assert all(type(c) is Fraction for c in (kappas[0].zero * kappas[0].one).rep)


def _no_root_modulus(base, d):
    """The first t^d + b t + c without a root in base, b and c in
    element_at order: irreducible, as d is 2 or 3."""
    elems = list(base.elements())
    for b, c in itertools.product(elems, repeat=2):
        pi = Poly(base, [c, b] + [base.zero] * (d - 2) + [base.one])
        if all(pi.evaluate(r) for r in elems):
            return pi
    raise AssertionError("no modulus without a root")


def test_quotient_representatives_live_in_the_base_ring():
    """Over F_7, F_13, GF(9) and GF(49), sums, negatives, products,
    inverses, embed, from_poly and element_at give length-d tuples in the
    base's list ring, ints in [0, p) over a prime base and the base's
    elements over an extension, each agreeing with Poly arithmetic
    modulo the modulus."""
    rng = random.Random(75)
    for base in (GF(7), GF(13), GF(9), GF(49)):
        for d in (2, 3):
            kappa = QuotientField(base, _no_root_modulus(base, d))
            pi = kappa.modulus
            for _ in range(15):
                a, b = (kappa.element_at(rng.randrange(kappa.order)) for _ in range(2))
                A, B = kappa.to_poly(a), kappa.to_poly(b)
                c = base.element_at(rng.randrange(base.order))
                P = random_poly(rng, base, 2 * d)
                cases = [(a, A), (a + b, A + B), (-a, -A), (a * b, A * B),
                         (kappa.embed(c), Poly.constant(base, c)), (kappa.from_poly(P), P)]
                if a:
                    inv = a.inverse()
                    cases.append((inv, kappa.to_poly(inv)))
                    assert (A * kappa.to_poly(inv)) % pi == Poly.one(base), (kappa, a)
                for e, E in cases:
                    assert len(e.rep) == d, (kappa, e)
                    if isinstance(base, PrimeField):
                        assert all(type(x) is int and 0 <= x < base.p for x in e.rep), e.rep
                    else:
                        assert all(x.field is base for x in e.rep), e.rep
                    assert kappa.to_poly(e) == E % pi, (kappa, e)


def test_prime_base_quotient_arithmetic_never_calls_the_base(monkeypatch):
    # over a prime field a quotient computes on its integer representatives
    kappas = [GF(49), QuotientField(GF(7), _no_root_modulus(GF(7), 3))]
    pairs = [(k, k.element_at(40), k.element_at(k.order - 2)) for k in kappas]

    def refuse(*args):
        raise AssertionError("a quotient of F_p called F_p's arithmetic")

    for name in ("_add", "_neg", "_mul", "_inv"):
        monkeypatch.setattr(PrimeField, name, refuse)
    results = [(k, a, b, a * b, a + b, -a, a.inverse()) for k, a, b in pairs]
    monkeypatch.undo()
    for k, a, b, prod, total, neg, inv in results:
        A, B = k.to_poly(a), k.to_poly(b)
        assert (prod, total, neg) == tuple(map(k.from_poly, (A * B, A + B, -A)))
        assert inv * a == k.one


def test_cubic_inverse_refuses_zero_and_zero_divisors():
    """At degree 3 the inverse is the extended Euclid on the
    representatives; zero and a zero divisor of a reducible modulus are
    refused, each with its own message."""
    f7 = GF(7)
    for base in (f7, QQ):
        field = QuotientField(base, Poly.from_ints(base, [-2, 0, 0, 1]))
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            field.zero.inverse()
        # t^3 - t = (t - 1) t (t + 1)
        ring = QuotientField(base, Poly.from_ints(base, [0, -1, 0, 1]))
        with pytest.raises(ZeroDivisionError, match="^representative is not invertible$"):
            (ring.gen_elem() * ring.gen_elem() - ring.one).inverse()
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            ring.zero.inverse()
        assert (ring.gen_elem() + 2).inverse() * (ring.gen_elem() + 2) == ring.one


def test_elements_are_false_exactly_at_zero():
    """bool(e) is e != 0 over GF(7), GF(9), a quadratic extension of F_9
    and Q(sqrt 2), zero coordinates in nonzero elements included."""
    tower = next(kappa for kappa, _ in _quadratic_fields() if kappa.base is GF(9))
    for field in (GF(7), GF(9), tower):
        for e in map(field.element_at, range(field.order)):
            assert bool(e) == (e != field.zero) == (e.rep != field.zero.rep), (field, e)
    q2 = QuotientField(QQ, Poly.from_ints(QQ, [-2, 0, 1]))
    root = q2.gen_elem()
    assert not q2.zero and not q2.embed(0) and not root - root
    assert all((q2.one, root, q2.embed(Fraction(1, 3)), root * root, root - 1))
    assert not root * root - 2


def test_products_by_an_embedded_constant_skip_zero_coordinates(monkeypatch):
    """Over F_9, c * b in a quadratic extension costs one F_9 product per
    coordinate of b: the constant's zero coordinate and the empty top of
    the product are skipped."""
    tower = next(kappa for kappa, _ in _quadratic_fields() if kappa.base is GF(9))
    f9 = tower.base
    c, b = tower.embed(f9.element_at(5)), tower.element_at(40)
    calls = []
    real = f9._mul
    monkeypatch.setattr(f9, "_mul", lambda x, y: calls.append(x) or real(x, y))
    prod = c * b
    assert len(calls) == tower.degree
    monkeypatch.undo()
    assert prod == tower.from_poly(tower.to_poly(c) * tower.to_poly(b))


def test_pth_power_exponent_keeps_zeta_on_the_field(monkeypatch):
    # g^((q-1)/p) is computed once per field and p, from the same generator
    field = QuotientField(GF(13), Poly.from_ints(GF(13), [2, 0, 1]))
    g = multiplicative_generator(field)
    calls = []
    real = fields.multiplicative_generator
    monkeypatch.setattr(
        fields, "multiplicative_generator", lambda f: calls.append(f) or real(f)
    )
    for p in (2, 3, 2, 3):
        for k in (1, 5, 7):
            assert pth_power_exponent(g**k, p) == k % p
    assert len(calls) == 2
    assert field._zeta == {2: g ** (168 // 2), 3: g ** (168 // 3)}


def test_quadratic_inverse_of_zero_divisor():
    # t^2 - 1 is reducible: t - 1 has no inverse, and the message says so
    ring = QuotientField(QQ, Poly.from_ints(QQ, [-1, 0, 1]))
    with pytest.raises(ZeroDivisionError, match="not invertible"):
        (ring.gen_elem() - ring.one).inverse()
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        ring.zero.inverse()


def test_rational_sqrt():
    assert rational_sqrt(Fraction(4, 9)) == Fraction(2, 3)
    assert rational_sqrt(Fraction(50, 2)) == 5
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(-4, 9)) is None
    assert rational_sqrt(Fraction(8, 9)) is None
    assert rational_sqrt(Fraction(4, 3)) is None
    rng = random.Random(73)
    for _ in range(50):
        r = Fraction(rng.randint(0, 10**12), rng.randint(1, 10**12))
        assert rational_sqrt(r * r) == r


def test_rational_is_square():
    assert rational_is_square(Fraction(4, 9))
    assert rational_is_square(Fraction(1))
    assert not rational_is_square(Fraction(-4, 9))
    assert not rational_is_square(Fraction(2))
    assert not rational_is_square(Fraction(8, 9))
    assert rational_is_square(Fraction(50, 2))


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        PrimeField(9)


def test_quotient_field_needs_degree_two():
    # GF(p) is a PrimeField and degree-1 residue fields are the base field
    with pytest.raises(ValueError):
        QuotientField(QQ, Poly.from_ints(QQ, [-1, 1]))


def test_is_prime_matches_trial_division():
    for n in range(20000):
        want = n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))
        assert is_prime(n) == want, n


def test_is_prime_rejects_twelve_base_pseudoprime():
    # psi12, the least strong pseudoprime to every prime base 2..37
    # (Sorensen-Webster); base 41 exposes it
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not is_prime(psi12)
    assert is_prime(41) and is_prime(399165290221)


def test_is_prime_above_psi13_answers_only_with_a_proof(monkeypatch):
    # psi13, the least strong pseudoprime to every prime base 2..41; bases
    # 43, 47 and 53 each witness that it is composite
    assert PSI13 == 1287836182261 * 2575672364521
    assert not is_prime(PSI13)
    proved = []
    pocklington = fields._pocklington
    monkeypatch.setattr(
        fields, "_pocklington", lambda n: proved.append(n) or pocklington(n)
    )
    assert is_prime(2**89 - 1) and not is_prime(2**89 + 1)
    assert proved == [2**89 - 1]
    # n - 1 = 2 q1 q2 with 72-bit primes q1, q2 that Pollard-Brent cannot
    # separate within its budget: no certificate, so no answer
    q1, q2 = 3247065457588853743369, 2899771095556797239369
    with pytest.raises(ScopeError, match="Pollard-Brent"):
        is_prime(2 * q1 * q2 + 1)


def test_factor_int_seeds_pollard_brent_only_for_a_composite_cofactor(monkeypatch):
    seeded = []
    real = random.Random
    monkeypatch.setattr(
        fields, "random", SimpleNamespace(Random=lambda s: seeded.append(s) or real(s))
    )
    # trial division and is_prime finish these
    for n in (2 * 3 * 53**2 * (2**61 - 1), -(53**3), 101, 1):
        assert math.prod(q**e for q, e in fields.factor_int(n)) == abs(n)
    assert seeded == []
    n = 1000003 * 1000033 * (2**31 - 1)
    assert fields.factor_int(n).factors == ((1000003, 1), (1000033, 1), (2**31 - 1, 1))
    assert seeded == [0x5EED]


def test_is_prime_matches_sympy_above_psi13():
    # composites and primes alike; a prime whose n - 1 Pollard-Brent cannot
    # factor may end out of scope, but no answer may be wrong
    sympy = pytest.importorskip("sympy")
    rng = random.Random(36)
    answered = 0
    for _ in range(30):
        n = rng.randrange(PSI13, 2**100)
        for m in (n, int(sympy.nextprime(n))):
            try:
                got = is_prime(m)
            except ScopeError:
                continue
            assert got == sympy.isprime(m), m
            answered += 1
    assert answered >= 50
