"""Exact factorization: integers, polynomials over Q, polynomials over F_q.

Integers are factored by fields.factor_int (trial division by small
primes, then Pollard-Brent), re-exported here.

The rational factorization is the classical Zassenhaus pipeline:
squarefree decomposition, factorization modulo a good small prime,
quadratic Hensel lifting up to the Mignotte bound, then subset
recombination.  Every recombination candidate is confirmed by an exact
integer polynomial multiplication before it is accepted, so the analytic
bound is a filter rather than a correctness assumption.

The whole modular stage works on plain integer coefficient lists (lowest
degree first): the squarefree test, distinct-degree count and
Cantor-Zassenhaus split modulo each candidate prime p use a small F_p[t]
kernel with entries in [0, p), and Hensel lifting uses symmetric
representatives modulo p^l.  No finite-field element objects are built on
the way to a factorization over Q.

Irreducibility and squarefreeness are decided only here: one squarefree
decomposition serves Q and F_q, and is_irreducible reads factor_poly.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

from .errors import ScopeError
from .fields import PrimePowerFactorization, factor_int, is_prime
from .poly import Poly, QQ, _int_list_primitive, poly_gcd


def squarefree_kernel(c):
    """sign * product of primes with odd exponent in the rational c."""
    c = Fraction(c)
    if c == 0:
        raise ValueError("zero has no squarefree kernel")
    out = 1 if c > 0 else -1
    for n in (c.numerator, c.denominator):
        for p, e in factor_int(abs(n)):
            if e % 2:
                out *= p
    return out


# ---------------------------------------------------------------------------
# integer coefficient lists (lowest degree first), for Hensel lifting and
# the F_p[t] kernel below


def _ztrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _ztrunc(a, m):
    """Symmetric representatives modulo m."""
    half = m // 2
    out = []
    for c in a:
        c %= m
        if c > half:
            c -= m
        out.append(c)
    return _ztrim(out)


def _zadd(a, b):
    n = max(len(a), len(b))
    return _ztrim(
        [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _zsub(a, b):
    n = max(len(a), len(b))
    return _ztrim(
        [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)]
    )


def _zmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ztrim(out)


def _zdivmod_mod(a, b, m):
    """Division with remainder in (Z/m)[t]; lc(b) must be invertible mod m."""
    a = [c % m for c in a]
    b = [c % m for c in b]
    _ztrim(b)
    inv = pow(b[-1], -1, m)
    db = len(b) - 1
    rem = list(a)
    _ztrim(rem)
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % m
        if not c:
            continue
        q = c * inv % m
        quo[i - db] = q
        for j, y in enumerate(b):
            rem[i - db + j] = (rem[i - db + j] - q * y) % m
    return _ztrim([c % m for c in quo]), _ztrim([c % m for c in rem])


def _hensel_step(m, f, g, h, s, t):
    """One quadratic lift: from f = g*h (mod m) to the same modulo m**2.

    Needs s*g + t*h = 1 (mod m), h monic, deg(f) = deg(g) + deg(h),
    deg(s) < deg(h), deg(t) < deg(g).  Returns (G, H, S, T) modulo m**2
    with the same shape invariants.
    """
    M = m * m
    e = _ztrunc(_zsub(f, _zmul(g, h)), M)
    q, r = _zdivmod_mod(_zmul(s, e), h, M)
    u = _zadd(_zmul(t, e), _zmul(q, g))
    G = _ztrunc(_zadd(g, u), M)
    H = _ztrunc(_zadd(h, r), M)
    u = _zadd(_zmul(s, G), _zmul(t, H))
    b = _ztrunc(_zsub(u, [1]), M)
    c, d = _zdivmod_mod(_zmul(s, b), H, M)
    u = _zadd(_zmul(t, b), _zmul(c, G))
    S = _ztrunc(_zsub(s, d), M)
    T = _ztrunc(_zsub(t, u), M)
    return G, H, S, T


def _hensel_lift(p, f, f_list, l):
    """Lift the factorization of f modulo p to modulo p**l.

    f_list holds monic modular factors of f/lc(f); the result is the list
    of monic factors modulo p**l in symmetric representation.
    """
    r = len(f_list)
    lc = f[-1]
    pl = p**l
    if r == 1:
        inv = pow(lc % pl, -1, pl)
        return [_ztrunc([c * inv for c in f], pl)]
    m = p
    k = r // 2
    d = int(math.ceil(math.log2(l))) if l > 1 else 0
    g = [lc]
    for fi in f_list[:k]:
        g = _ztrunc(_zmul(g, fi), p)
    h = list(f_list[k])
    for fi in f_list[k + 1 :]:
        h = _ztrunc(_zmul(h, fi), p)
    one, s, t = _gf_xgcd(g, h, p)
    if one != [1]:
        raise ArithmeticError("modular factors are not coprime")
    s = _ztrunc(s, p)
    t = _ztrunc(t, p)
    for _ in range(d):
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m = m * m
    return _hensel_lift(p, g, f_list[:k], l) + _hensel_lift(p, h, f_list[k:], l)


# ---------------------------------------------------------------------------
# F_p[t] on integer lists (lowest degree first, entries in [0, p)), for the
# modular stage of the factorization over Q (MCA 14.2-14.3)


def _zmod(a, m):
    """Representatives in [0, m)."""
    return _ztrim([c % m for c in a])


def _gf_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gf_gcd(a, b, p):
    """Monic gcd in F_p[t]; the gcd of a and 0 is a made monic."""
    while b:
        a, b = b, _zdivmod_mod(a, b, p)[1]
    return _gf_monic(a, p) if a else a


def _gf_xgcd(a, b, p):
    """(g, s, t) with s*a + t*b = g, the monic gcd in F_p[t]; b nonzero."""
    a, b = _zmod(a, p), _zmod(b, p)
    sa, sb = [1], []
    ta, tb = [], [1]
    while b:
        q, r = _zdivmod_mod(a, b, p)
        a, b = b, r
        sa, sb = sb, _zmod(_zsub(sa, _zmul(q, sb)), p)
        ta, tb = tb, _zmod(_zsub(ta, _zmul(q, tb)), p)
    inv = pow(a[-1], -1, p)
    return tuple([c * inv % p for c in v] for v in (a, sa, ta))


def _gf_powmod(a, n, f, p):
    """a**n modulo f in F_p[t]; f has degree >= 1."""
    result = [1]
    base = _zdivmod_mod(a, f, p)[1]
    while n:
        if n & 1:
            result = _zdivmod_mod(_zmul(result, base), f, p)[1]
        n >>= 1
        if n:
            base = _zdivmod_mod(_zmul(base, base), f, p)[1]
    return result


def _gf_derivative(a, p):
    return _zmod([i * c for i, c in enumerate(a)][1:], p)


def _gf_distinct_degree(f, p):
    """[(product of the degree-d factors, d)] for a monic squarefree f."""
    out = []
    h = [0, 1]
    i = 1
    cur = f
    while len(cur) - 1 >= 2 * i:
        h = _gf_powmod(h, p, cur, p)
        g = _gf_gcd(cur, _zmod(_zsub(h, [0, 1]), p), p)
        if len(g) > 1:
            out.append((g, i))
            cur = _zdivmod_mod(cur, g, p)[0]
            h = _zdivmod_mod(h, cur, p)[1]
        i += 1
    if len(cur) > 1:
        out.append((cur, len(cur) - 1))
    return out


def _gf_equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus split of a monic squarefree f whose irreducible
    factors all have degree d.  The prime search in _zassenhaus starts at
    3, so p is odd and the split by r**((p**d - 1)/2) - 1 always applies;
    characteristic 2 would need the trace map instead."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        r = _ztrim([rng.randrange(p) for _ in range(n)])
        if len(r) < 2:
            continue
        g = _gf_gcd(f, r, p)
        if 0 < len(g) - 1 < n:
            break
        h = _zmod(_zsub(_gf_powmod(r, (p**d - 1) // 2, f, p), [1]), p)
        g = _gf_gcd(f, h, p)
        if 0 < len(g) - 1 < n:
            break
    rest = _zdivmod_mod(f, g, p)[0]
    return _gf_equal_degree(g, d, p, rng) + _gf_equal_degree(rest, d, p, rng)


def _gf_split_distinct_degree(parts, p):
    """Sorted monic irreducible factors of the f whose distinct-degree split is parts."""
    rng = random.Random(0x5EED)
    out = []
    for part, d in parts:
        out.extend(_gf_equal_degree(part, d, p, rng))
    out.sort(key=lambda g: (len(g), g))
    return out


# ---------------------------------------------------------------------------
# squarefree decomposition over Q and F_q


def _ff_pth_root_poly(f):
    """Inverse Frobenius on exponents: f(t) = g(t^p) gives back g."""
    field = f.field
    p = field.char
    root_exp = field.order // p
    coeffs = []
    for i in range(0, f.degree + 1, p):
        coeffs.append(f.coeff(i) ** root_exp)
    return Poly(field, coeffs)


def squarefree_decomposition(f):
    """[(g_i, m_i)] with f monic = prod g_i^{m_i}, g_i monic squarefree,
    over QQ or F_q; the p-th root steps only run in characteristic p."""
    p = f.field.char
    out = []
    e = 1
    while f.degree >= 1:
        fp = f.derivative()
        if fp.is_zero:
            f = _ff_pth_root_poly(f)
            e *= p
            continue
        g = poly_gcd(f, fp)
        if g.degree == 0:
            # f is its own squarefree part
            out.append((f, e))
            break
        w = f.exact_div(g)
        i = 1
        while w.degree >= 1:
            y = poly_gcd(w, g)
            z = w.exact_div(y)
            if z.degree >= 1:
                out.append((z, i * e))
            w = y
            g = g.exact_div(y)
            i += 1
        if g.degree >= 1:
            f = _ff_pth_root_poly(g)
            e *= p
        else:
            break
    return out


# ---------------------------------------------------------------------------
# factorization over Q


def _next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


_PRIME_BOUND = 10**6


def _zassenhaus(f):
    """Irreducible primitive factors of a primitive squarefree f in Z[t]."""
    n = len(f) - 1
    if n == 1:
        return [list(f)]
    fc, b = f[0], f[-1]
    A = max(abs(c) for c in f)
    B = (math.isqrt(n + 1) + 1) * 2**n * A * abs(b)

    # the prime with the fewest modular factors, counted from the
    # distinct-degree split alone (MCA 14.2); only its split is refined
    # into irreducible factors
    candidates = []
    p = 2
    while len(candidates) < 4:
        p = _next_prime(p)
        if p >= _PRIME_BOUND:
            break
        if b % p == 0:
            continue
        fp = _gf_monic(_zmod(f, p), p)
        if len(_gf_gcd(fp, _gf_derivative(fp, p), p)) != 1:
            continue
        parts = _gf_distinct_degree(fp, p)
        count = sum((len(g) - 1) // d for g, d in parts)
        candidates.append((count, p, parts))
        if count == 1:
            break
    if not candidates:
        raise ScopeError(
            f"no good prime below {_PRIME_BOUND} for a degree-{n} factorization"
        )
    count, p, parts = min(candidates, key=lambda c: (c[0], c[1]))
    if count == 1:
        return [list(f)]
    mod_factors = _gf_split_distinct_degree(parts, p)

    l = 1
    while p**l < 2 * B + 1:
        l += 1
    pl = p**l
    lifted = _hensel_lift(p, list(f), mod_factors, l)

    T = list(range(len(lifted)))
    factors = []
    cur = list(f)
    s = 1
    while 2 * s <= len(T):
        found = False
        for S in itertools.combinations(T, s):
            b = cur[-1]
            G = [b]
            for i in S:
                G = _ztrunc(_zmul(G, lifted[i]), pl)
            H = [b]
            for i in T:
                if i not in S:
                    H = _ztrunc(_zmul(H, lifted[i]), pl)
            # exact confirmation: G*H must equal b*cur over Z
            if _zmul(G, H) != [b * c for c in cur]:
                continue
            G = _int_list_primitive(G)
            H = _int_list_primitive(H)
            factors.append(G)
            cur = H
            T = [i for i in T if i not in S]
            found = True
            break
        if not found:
            s += 1
    factors.append(cur)
    return factors


@lru_cache(maxsize=4096)
def _factor_q_monic(f):
    """Cached monic irreducible factors with multiplicity, sorted."""
    collected = []
    for g, mult in squarefree_decomposition(f):
        for part in _zassenhaus(g.int_form()[1]):
            h = Poly.from_ints(QQ, part).monic()
            collected.append((h, mult))
    collected.sort(key=lambda fm: fm[0].sort_key())
    return tuple(collected)


def factor_over_Q(f):
    """Factor a nonzero polynomial over Q into monic irreducibles.

    The unit is the leading coefficient; factors come back sorted by
    degree, then lexicographically on the coefficient sequence.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if f.field is not QQ:
        raise TypeError("factor_over_Q needs a polynomial over QQ")
    unit = f.lc
    if f.degree == 0:
        return PrimePowerFactorization(unit, ())
    return PrimePowerFactorization(unit, _factor_q_monic(f.monic()))


# ---------------------------------------------------------------------------
# factorization over finite fields


def _powmod(a, n, m):
    result = Poly.one(a.field) % m
    base = a % m
    while n:
        if n & 1:
            result = result * base % m
        base = base * base % m
        n >>= 1
    return result


def _ff_distinct_degree(f):
    """[(product_of_factors, d)] for a monic squarefree f."""
    field = f.field
    q = field.order
    t = Poly.gen(field)
    out = []
    h = t % f
    i = 1
    cur = f
    while cur.degree >= 2 * i:
        h = _powmod(h, q, cur)
        g = poly_gcd(cur, h - t)
        if g.degree >= 1:
            out.append((g, i))
            cur = cur.exact_div(g)
            h = h % cur
        i += 1
    if cur.degree >= 1:
        out.append((cur, cur.degree))
    return out


def _ff_random_poly(field, degree, rng):
    cache = getattr(field, "_elem_cache", None)
    if cache is None:
        cache = list(field.elements())
        field._elem_cache = cache
    coeffs = [cache[rng.randrange(len(cache))] for _ in range(degree + 1)]
    return Poly(field, coeffs)


def _ff_equal_degree(f, d, rng):
    """Cantor-Zassenhaus split of a monic squarefree f whose irreducible
    factors all have degree d."""
    if f.degree == d:
        return [f]
    field = f.field
    q = field.order
    while True:
        r = _ff_random_poly(field, f.degree - 1, rng)
        if r.is_zero or r.degree < 1:
            continue
        g = poly_gcd(f, r)
        if 0 < g.degree < f.degree:
            break
        if field.char == 2:
            # additive splitting by the absolute trace of r
            bits = d * _two_power_exponent(field.order)
            acc = r % f
            total = acc
            for _ in range(bits - 1):
                acc = acc * acc % f
                total = (total + acc) % f
            g = poly_gcd(f, total)
        else:
            e = (q**d - 1) // 2
            h = _powmod(r, e, f) - Poly.one(field)
            g = poly_gcd(f, h)
        if 0 < g.degree < f.degree:
            break
    return _ff_equal_degree(g, d, rng) + _ff_equal_degree(f.exact_div(g), d, rng)


def _two_power_exponent(q):
    k = 0
    while q % 2 == 0:
        q //= 2
        k += 1
    return k


def _ff_factor_squarefree_monic(f):
    """Monic irreducible factors of a monic squarefree f, sorted."""
    rng = random.Random(0x5EED)
    out = []
    for part, d in _ff_distinct_degree(f):
        out.extend(_ff_equal_degree(part, d, rng))
    out.sort(key=lambda g: g.sort_key())
    return out


def factor_over_Fq(f):
    """Factor a nonzero polynomial over a finite field into monic irreducibles."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if not f.field.finite:
        raise TypeError("factor_over_Fq needs a finite coefficient field")
    unit = f.lc
    if f.degree == 0:
        return PrimePowerFactorization(unit, ())
    collected = []
    for g, mult in squarefree_decomposition(f.monic()):
        for h in _ff_factor_squarefree_monic(g):
            collected.append((h, mult))
    collected.sort(key=lambda fm: fm[0].sort_key())
    return PrimePowerFactorization(unit, tuple(collected))


# ---------------------------------------------------------------------------
# dispatch helpers


def factor_poly(f):
    if f.field is QQ:
        return factor_over_Q(f)
    return factor_over_Fq(f)


def is_irreducible(f):
    """Whether f is irreducible over its field: one factor, multiplicity 1."""
    if f.degree < 1:
        return False
    factors = factor_poly(f).factors
    return len(factors) == 1 and factors[0][1] == 1

