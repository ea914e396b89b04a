"""Hilbert symbols checked against an exhaustive local solvability search.

The oracle decides whether z^2 = a x^2 + b y^2 has a primitive solution
over Z_p by searching modulo p^3 (modulo 32 when p = 2).  After scaling
away even powers of p the coefficients have valuation at most one, so a
primitive solution modulo that power lifts by Hensel's lemma and the
search is decisive, not heuristic.
"""

import random
from fractions import Fraction

import pytest

from brauercalc import hilbert
from brauercalc.cli import main
from brauercalc.factoring import squarefree_kernel
from brauercalc.hilbert import (
    INF,
    hilbert_symbol,
    invariant_set,
    local_invariants,
    local_is_square,
    nonsplit_places,
    relevant_places,
    separating_discriminant,
    splits_invariant_set,
    square_classes,
    _unit_mod,
)

from _gen import nonzero_rational


def oracle_hilbert(a, b, place):
    """(a,b)_v by brute force: solvability of z^2 = a x^2 + b y^2."""
    a, b = Fraction(a), Fraction(b)
    if place == INF:
        return -1 if a < 0 and b < 0 else 1
    p = place
    modulus = 32 if p == 2 else p**3
    va, ua = _unit_mod(a, p, modulus)
    vb, ub = _unit_mod(b, p, modulus)
    # valuations mod 2 and unit parts mod p^3 differ from a, b by squares
    aa = p ** (va % 2) * ua % modulus
    bb = p ** (vb % 2) * ub % modulus
    squares = {z * z % modulus for z in range(modulus)}
    unit_squares = {z * z % modulus for z in range(modulus) if z % p}
    for x in range(modulus):
        for y in range(modulus):
            w = (aa * x * x + bb * y * y) % modulus
            if x % p or y % p:
                if w in squares:
                    return 1
            elif w in unit_squares:
                # x and y both divisible by p forces z to be the unit
                return 1
    return -1


def oracle_local_square(d, place):
    d = Fraction(d)
    if place == INF:
        return d > 0
    p = place
    modulus = 32 if p == 2 else p**3
    v, u = _unit_mod(d, p, modulus)
    if v % 2:
        return False
    return any(z * z % modulus == u for z in range(modulus) if z % p)


HAND_VALUES = [
    (-1, -1, 2, -1),
    (-1, -1, INF, -1),
    (-1, -1, 3, 1),
    (-1, -1, 5, 1),
    (2, 3, 3, -1),
    (3, 3, 3, -1),
    (2, 7, 7, 1),
    (3, -15, 3, -1),
    (5, 2, 5, -1),
    (Fraction(1, 2), Fraction(1, 2), 2, 1),
    (2, -1, 2, 1),
]


def test_hand_values():
    for a, b, v, expected in HAND_VALUES:
        assert hilbert_symbol(a, b, v) == expected, (a, b, v)


def test_oracle_agrees_on_hand_values():
    for a, b, v, expected in HAND_VALUES:
        assert oracle_hilbert(a, b, v) == expected, (a, b, v)


def test_random_symbols_match_oracle():
    rng = random.Random(20260817)
    for place in (2, 3, 5, INF):
        for _ in range(60 if place in (2, 3) else 25):
            a = nonzero_rational(rng, 40)
            b = nonzero_rational(rng, 40)
            assert hilbert_symbol(a, b, place) == oracle_hilbert(a, b, place), (
                a,
                b,
                place,
            )


def test_bilinear_symmetric():
    rng = random.Random(7)
    for _ in range(120):
        place = rng.choice([2, 3, 5, 7, 11, INF])
        a = nonzero_rational(rng, 60)
        b = nonzero_rational(rng, 60)
        c = nonzero_rational(rng, 60)
        assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
        assert hilbert_symbol(a * c, b, place) == hilbert_symbol(
            a, b, place
        ) * hilbert_symbol(c, b, place)
        q = nonzero_rational(rng, 9)
        assert hilbert_symbol(a * q * q, b, place) == hilbert_symbol(a, b, place)


def test_steinberg_relations():
    rng = random.Random(11)
    for _ in range(80):
        place = rng.choice([2, 3, 5, 13, INF])
        a = nonzero_rational(rng, 60)
        assert hilbert_symbol(a, -a, place) == 1
        if a != 1:
            assert hilbert_symbol(a, 1 - a, place) == 1
        assert hilbert_symbol(1, a, place) == 1


def test_product_formula():
    rng = random.Random(13)
    for _ in range(150):
        a = nonzero_rational(rng, 200)
        b = nonzero_rational(rng, 200)
        inv = local_invariants([(a, b)])
        prod = 1
        for s in inv.values():
            prod *= s
        assert prod == 1, (a, b, inv)


def test_product_formula_violation_is_an_internal_error(monkeypatch):
    # a Hilbert symbol flipped at the place 2 breaks reciprocity; the check
    # on every relevant place reports it as a bug (exit 4), not as bad input
    true_symbol = hilbert.hilbert_symbol

    def flipped(a, b, place):
        s = true_symbol(a, b, place)
        return -s if place == 2 else s

    monkeypatch.setattr(hilbert, "hilbert_symbol", flipped)
    with pytest.raises(AssertionError, match="reciprocity"):
        local_invariants([(3, 5)])
    assert main(["equal", "(3, 5)", "0"]) == 4


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)
    with pytest.raises(ValueError):
        hilbert_symbol(3, 5, 6)


def test_relevant_places_and_invariant_sets():
    pairs = [(Fraction(5), Fraction(-14)), (Fraction(1, 3), Fraction(2))]
    places = relevant_places(pairs)
    assert places[0] == 2 and places[-1] == INF
    assert set(places) == {2, 3, 5, 7, INF}
    rng = random.Random(17)
    for _ in range(60):
        pairs = [
            (nonzero_rational(rng, 50), nonzero_rational(rng, 50))
            for _ in range(rng.randint(1, 3))
        ]
        ram = invariant_set(pairs)
        assert set(ram) <= set(relevant_places(pairs))
        # product formula forces an even number of nonsplit places
        assert len(ram) % 2 == 0


def _constant_entry(rng):
    """A nonzero rational of height <= 30, an int, or one scaled by k^2 or
    1/m^2 (k, m <= 50), or +-1 times a square (kernel +-1)."""
    kind = rng.randrange(5)
    if kind == 0:
        return rng.choice([-1, 1]) * rng.randint(1, 30)
    if kind == 1:
        return nonzero_rational(rng, 30) * rng.randint(1, 50) ** 2
    if kind == 2:
        return nonzero_rational(rng, 30) / rng.randint(1, 50) ** 2
    if kind == 3:
        return rng.choice([-1, 1]) * Fraction(rng.randint(1, 50), rng.randint(1, 50)) ** 2
    return nonzero_rational(rng, 30)


def test_nonsplit_places_agree_with_invariant_sets():
    """On 300 seeded constant sums the memo of pair sets gives what
    local_invariants gives on the rationals themselves; half the right
    sums are the left ones with every entry scaled by a square, so their
    pairs are read from the memo.  At 2, 3, 5 and infinity a sum of
    entries of height <= 30 is also checked against the search oracle."""
    rng = random.Random(4141)
    oracle_checked = 0
    for i in range(300):
        lp = [(_constant_entry(rng), _constant_entry(rng)) for _ in range(rng.randint(1, 3))]
        if i % 2:
            rp = [(x * Fraction(rng.randint(1, 50), rng.randint(1, 50)) ** 2,
                   y * Fraction(1, rng.randint(1, 50) ** 2)) for x, y in lp]
        else:
            rp = [(_constant_entry(rng), _constant_entry(rng)) for _ in range(rng.randint(1, 3))]
        got = nonsplit_places(*square_classes(lp, rp))
        assert got == [invariant_set(lp), invariant_set(rp)], (lp, rp)
        for pairs, places in zip((lp, rp), got):
            entries = [Fraction(x) for pair in pairs for x in pair]
            if max(max(abs(x.numerator), x.denominator) for x in entries) > 30:
                continue
            oracle_checked += 1
            for v in (2, 3, 5, INF):
                sign = 1
                for x, y in pairs:
                    sign *= oracle_hilbert(x, y, v)
                assert (v in places) == (sign == -1), (pairs, v)
    info = hilbert._pair_places.cache_info()
    assert info.hits >= 200 and oracle_checked >= 30, (info, oracle_checked)


def test_local_is_square_against_oracle():
    rng = random.Random(19)
    for _ in range(80):
        d = nonzero_rational(rng, 80)
        for place in (2, 3, 5, INF):
            assert local_is_square(d, place) == oracle_local_square(d, place), (
                d,
                place,
            )
    for _ in range(40):
        d = nonzero_rational(rng, 30) ** 2
        place = rng.choice([2, 3, 5, 7, INF])
        assert local_is_square(d, place)


def test_local_square_hand_values():
    assert local_is_square(2, 7)
    assert not local_is_square(2, 5)
    assert not local_is_square(-1, 2)
    assert local_is_square(17, 2)
    assert not local_is_square(2, 2)
    assert not local_is_square(-4, INF)
    assert local_is_square(Fraction(4, 9), 13)


def test_separating_discriminant_fixed_sets():
    d = separating_discriminant((2, INF), (2, 3))
    assert d == squarefree_kernel(d)
    assert splits_invariant_set(d, (2, 3)) != splits_invariant_set(d, (2, INF))
    with pytest.raises(ValueError):
        separating_discriminant((2, 5), (5, 2))


def test_separating_discriminant_random_sets():
    """Disjoint, nested, and overlapping nonsplit sets all separate."""
    rng = random.Random(23)
    seen = 0
    while seen < 40:
        sa = invariant_set(
            [(nonzero_rational(rng, 40), nonzero_rational(rng, 40))]
        )
        sb = invariant_set(
            [(nonzero_rational(rng, 40), nonzero_rational(rng, 40))]
        )
        if set(sa) == set(sb) or not sa or not sb:
            continue
        seen += 1
        d = separating_discriminant(sa, sb)
        assert splits_invariant_set(d, sa) != splits_invariant_set(d, sb), (
            sa,
            sb,
            d,
        )
