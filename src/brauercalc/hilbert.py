"""Local invariants of quaternion classes over Q.

Places of Q are odd primes, 2, and "inf".  The Hilbert symbol (a,b)_v
is +1 or -1; a sum of quaternion symbols is trivial exactly when the
product of its symbols is +1 at every place, and the places where any
invariant can differ from +1 are 2, infinity, and the odd primes
meeting a numerator or denominator of an entry.

A symbol depends only on the square classes of its entries: (x, y)_v =
(k(x), k(y))_v for the squarefree kernel k.  The invariants multiply,
so nonsplit_places reads a sum's set as the symmetric difference of its
pairs' sets, and works out each distinct pair of square classes once
per process: a memo keyed by the ordered pair of kernels evaluates the
symbols on the two integers, and checks Hilbert reciprocity on the pair.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, prod

from .factoring import square_class, squarefree_kernel
from .fields import factor_int, is_prime

INF = "inf"


def place_key(v):
    """Sort key putting finite primes in order before infinity."""
    return (1, 0) if v == INF else (0, v)


def _unit_mod(x, p, modulus):
    """(valuation, p-adic unit part of x reduced mod a power of p) for an
    int or Fraction x: p is stripped from its numerator and denominator."""
    if x == 0:
        raise ValueError("zero has no finite valuation")
    num, den, v = x.numerator, x.denominator, 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num * pow(den, -1, modulus) % modulus


def hilbert_symbol(a, b, place):
    """(a, b)_v for nonzero rationals a, b (ints or Fractions) at a place of Q."""
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbols need nonzero entries")
    if place == INF:
        return -1 if a < 0 and b < 0 else 1
    p = place
    if not is_prime(p):
        raise ValueError(f"{p} is not a place of Q")
    if p == 2:
        alpha, u8 = _unit_mod(a, 2, 8)
        beta, w8 = _unit_mod(b, 2, 8)
        eps_u = (u8 - 1) // 2 % 2
        eps_w = (w8 - 1) // 2 % 2
        om_u = (u8 * u8 - 1) // 8 % 2
        om_w = (w8 * w8 - 1) // 8 % 2
        e = eps_u * eps_w + alpha * om_w + beta * om_u
        return -1 if e % 2 else 1
    alpha, up = _unit_mod(a, p, p)
    beta, wp = _unit_mod(b, p, p)
    e = 0
    if (alpha * beta) % 2 and p % 4 == 3:
        e += 1
    if beta % 2 and pow(up, (p - 1) // 2, p) != 1:
        e += 1
    if alpha % 2 and pow(wp, (p - 1) // 2, p) != 1:
        e += 1
    return -1 if e % 2 else 1


def relevant_places(pairs):
    """Places where a sum of quaternion symbols could be nonsplit.

    Always contains 2 and infinity; every odd prime dividing a numerator
    or denominator of an entry (an int or a Fraction) joins them.
    """
    primes = set()
    for a, b in pairs:
        for x in (a, b):
            for n in (x.numerator, x.denominator):
                if abs(n) > 1:
                    primes.update(q for q, _ in factor_int(abs(n)) if q != 2)
    return sorted(primes | {2, INF}, key=place_key)


def _invariants(pairs, places):
    """Products of Hilbert symbols of the pairs at each of the places, which
    must include every place where one can be -1: the invariants multiply
    to +1 (Hilbert reciprocity), and a violation is a bug that raises
    AssertionError, which the CLI reports as an internal error."""
    out = {}
    for v in places:
        s = 1
        for a, b in pairs:
            s *= hilbert_symbol(a, b, v)
        out[v] = s
    if prod(out.values()) != 1:
        nonsplit = [v for v, s in out.items() if s == -1]
        raise AssertionError(f"Hilbert reciprocity fails: nonsplit at {nonsplit}")
    return out


def local_invariants(pairs):
    """Products of Hilbert symbols of the pairs, keyed by place, at every
    relevant place, checked for Hilbert reciprocity."""
    return _invariants(pairs, relevant_places(pairs))


def invariant_set(pairs):
    """Sorted places where the sum of the symbols is nonsplit."""
    return tuple(v for v, s in local_invariants(pairs).items() if s == -1)


def square_classes(*sums):
    """Each sum of pairs of nonzero rationals as its pairs of square classes,
    (k, odd primes of k) for the squarefree kernel k (factoring.square_class),
    each entry object reduced once (brauer's specialized pairs hold one
    value object per entry object)."""
    seen = {}

    def reduced(x):
        c = seen.get(id(x))
        if c is None:
            c = seen[id(x)] = square_class(x)
        return c

    return tuple(tuple((reduced(x), reduced(y)) for x, y in pairs) for pairs in sums)


@lru_cache(maxsize=4096)
def _pair_places(x, y):
    """The nonsplit places of the symbol (k, l), for square classes x = (k,
    odd primes of k) and y = (l, odd primes of l), from its invariants at 2,
    the odd primes of kl and infinity, checked for Hilbert reciprocity."""
    (k, kp), (l, lp) = x, y
    places = (2, *sorted(set(kp).union(lp)), INF)
    return frozenset(v for v, s in _invariants(((k, l),), places).items() if s == -1)


def nonsplit_places(*sums):
    """invariant_set of each sum of square-class pairs (square_classes): the
    symmetric difference of its pairs' own sets, each read from _pair_places
    keyed by the pair in increasing order (the symbol is symmetric)."""
    out = []
    for pairs in sums:
        acc = set()
        for x, y in pairs:
            acc ^= _pair_places(x, y) if x <= y else _pair_places(y, x)
        out.append(tuple(sorted(acc, key=place_key)))
    return out


def local_is_square(d, place):
    """Whether a nonzero rational (an int or a Fraction) is a square in the
    completion at place."""
    if d == 0:
        raise ValueError("zero is not a unit")
    if place == INF:
        return d > 0
    p = place
    if p == 2:
        v, u8 = _unit_mod(d, 2, 8)
        return v % 2 == 0 and u8 == 1
    v, up = _unit_mod(d, p, p)
    return v % 2 == 0 and pow(up, (p - 1) // 2, p) == 1


def splits_invariant_set(d, places):
    """Whether Q(sqrt(d)) kills a class whose nonsplit places are given.

    The quadratic field splits the class exactly when d is a nonsquare
    in every completion where the class is nonsplit.
    """
    return all(not local_is_square(d, v) for v in places)


def _smallest_nonresidue(p):
    for n in range(2, p):
        if pow(n, (p - 1) // 2, p) != 1:
            return n
    raise AssertionError(f"no quadratic nonresidue below {p}")


def _crt(congruences):
    r, m = 0, 1
    for a, n in congruences:
        g = gcd(m, n)
        if g != 1:
            raise ValueError("moduli must be coprime")
        t = (a - r) * pow(m, -1, n) % n
        r += m * t
        m *= n
    return r % m, m


def separating_discriminant(places_a, places_b):
    """A squarefree d with Q(sqrt(d)) splitting exactly one of two classes.

    The inputs are the nonsplit place sets of the two classes and must
    differ.  The construction fixes a place found in only one of the
    sets, arranges d to be a local square there, and a local nonsquare
    at every nonsplit place of the other class; excess ramification of d
    at uninvolved places is harmless.
    """
    sa, sb = set(places_a), set(places_b)
    if sa == sb:
        raise ValueError("the nonsplit place sets coincide")
    only_a = sa - sb
    if only_a:
        star = min(only_a, key=place_key)
        target = sb
    else:
        star = min(sb - sa, key=place_key)
        target = sa
    congruences = []
    if 2 in target:
        congruences.append((5, 8))
    else:
        congruences.append((1, 8))
    for v in sorted(target | ({star} - {INF}), key=place_key):
        if v == 2 or v == INF:
            continue
        if v in target:
            congruences.append((_smallest_nonresidue(v), v))
        else:
            congruences.append((1, v))
    # r is 1 or 5 mod 8, so odd and nonzero
    r, m = _crt(congruences)
    d = squarefree_kernel(r - m if INF in target else r)
    if not splits_invariant_set(d, target):
        raise AssertionError(f"Q(sqrt({d})) does not split the target class")
    if not local_is_square(d, star):
        raise AssertionError(f"{d} is not a local square at {star}")
    return d
