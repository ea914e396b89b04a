"""Exact factorization: integers, polynomials over Q, polynomials over F_q.

Integers are factored by fields.factor_int (trial division by small
primes, then Pollard-Brent), re-exported here.

The rational factorization runs on a primitive integer form and first
splits off the rational roots.  At a prime p > deg f not dividing lc(f),
each root of f mod p of multiplicity k is Newton-lifted as a simple root
of the (k-1)-th Hasse derivative, modulo p^l past twice the Cauchy bound
on lc(f) * r for a rational root r, and kept only if f vanishes at it
exactly.  The cofactor is free of rational roots for certain once every
root mod p is confirmed with its full multiplicity; if its degree is 2 or
3 it is then irreducible.  Where roots collide mod p, the next prime
retries on the cofactor, for at most _SQUAREFREE_TRIES primes.

What may still factor goes to the classical Zassenhaus pipeline (MCA
ch. 15), around one prime search bounded by _PRIME_BOUND.  That search
does three jobs:
  * it proves f squarefree: if f mod p is squarefree for a prime p not
    dividing lc(f), so is f, and the squarefree decomposition over Q runs
    only when the first _SQUAREFREE_TRIES such primes all fail that test;
  * it picks the prime to lift from, by the number of modular factors
    that the distinct-degree split counts, stopping at the first prime
    with at most _FEW_FACTORS of them, else keeping the best of
    _CANDIDATE_PRIMES;
  * it raises ScopeError if no usable prime lies below _PRIME_BOUND.
The modular factors are Hensel-lifted modulo p^l just past twice the
Mignotte bound binom(n-1, (n-1)//2) * |f|_2 (MCA Cor. 6.33), which bounds
every coefficient of lc(f)/lc(g) * g for a factor g of f.  Recombination
first applies the trailing-coefficient test of Abbott, Shoup & Zimmermann
(ISSAC 2000): a candidate's constant term must be a nonzero divisor of
lc(f)*f(0) when f(0) is nonzero.  Subsets that pass it have their product
built and confirmed by an exact integer multiplication, so the bound is a
filter rather than a correctness assumption.  At most
_RECOMBINATION_BUDGET subsets are walked, tested or built; beyond that,
ScopeError.

Factoring over a finite field is one squarefree loop and one
Cantor-Zassenhaus algorithm (distinct-degree, equal-degree and sorted
split, one _powmod) written once over one of poly's two rings, whose gcd
is poly's one Euclid: _IntListRing, F_p[t] on integer lists, for the
modular stage over Q (no field elements built) and for factor_over_Fq
over any prime field, cached by (p, representatives) in
_factor_fp_monic; or _PolyRing, Poly over an extension field GF(p^k),
drawing by field.element_at so no field is listed.  An equal-degree
split makes at most _SPLIT_DRAWS random draws, then raises ScopeError.

Irreducibility and squarefreeness are decided only here: the one
squarefree loop serves Q (on _PolyRing(QQ)), F_p and F_q, and
is_irreducible reads factor_poly.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

from .errors import ScopeError
from .fields import PrimeField, PrimePowerFactorization
from .fields import factor_int, is_prime, rational_sqrt
from .poly import Poly, QQ, _IntListRing, _PolyRing, _power
from .poly import _int_list_at, _int_list_primitive, _int_list_strip
from .poly import _zadd, _zdivmod_mod, _zmul, _zsub, _ztrunc


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
# Hensel lifting on the integer lists of poly


def _hensel_step(M, f, g, h, s, t):
    """One quadratic lift: from f = g*h (mod m) to the same modulo M,
    for any M dividing m**2.

    Needs s*g + t*h = 1 (mod m), h monic, deg(f) = deg(g) + deg(h),
    deg(s) < deg(h), deg(t) < deg(g).  Returns (G, H, S, T) modulo M
    with the same shape invariants.
    """
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
    of monic factors modulo p**l in symmetric representation.  Each
    quadratic step squares the modulus, the last one only up to p**l.
    """
    r = len(f_list)
    lc = f[-1]
    pl = p**l
    if r == 1:
        inv = pow(lc % pl, -1, pl)
        return [_ztrunc([c * inv for c in f], pl)]
    m = p
    k = r // 2
    g = [lc]
    for fi in f_list[:k]:
        g = _ztrunc(_zmul(g, fi), p)
    h = list(f_list[k])
    for fi in f_list[k + 1 :]:
        h = _ztrunc(_zmul(h, fi), p)
    one, s, t = _IntListRing(p).xgcd(g, h)
    if one != [1]:
        raise ArithmeticError("modular factors are not coprime")
    s = _ztrunc(s, p)
    t = _ztrunc(t, p)
    while m < pl:
        m = min(m * m, pl)
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
    return _hensel_lift(p, g, f_list[:k], l) + _hensel_lift(p, h, f_list[k:], l)


# ---------------------------------------------------------------------------
# Cantor-Zassenhaus (MCA 14.2-14.3; Cantor & Zassenhaus 1981) over poly's rings


def _powmod(R, a, n, f):
    """a**n modulo f in R: poly._power with products reduced mod f, which
    has degree >= 1."""
    return _power(R.rem(a, f), n, R.one, lambda x, y: R.rem(R.mul(x, y), f))


def _distinct_degree(R, f):
    """[(product of the degree-d factors, d)] for a monic squarefree f."""
    out = []
    h = R.rem(R.gen, f)
    i = 1
    cur = f
    while R.deg(cur) >= 2 * i:
        h = _powmod(R, h, R.q, cur)
        g = R.gcd(cur, R.sub(h, R.gen))
        if R.deg(g) >= 1:
            out.append((g, i))
            cur = R.quo(cur, g)
            h = R.rem(h, cur)
        i += 1
    if R.deg(cur) >= 1:
        out.append((cur, R.deg(cur)))
    return out


# Random draws one equal-degree split may make; running out raises
# ScopeError.  Each draw splits with probability about 1/2 or more
# (MCA Thm. 14.9), so that many failures in a row should never happen.
_SPLIT_DRAWS = 64


def _equal_degree(R, f, d, rng):
    """Cantor-Zassenhaus split of a monic squarefree f whose irreducible
    factors all have degree d.  A random r splits f by gcd(f, r^((q^d-1)/2)
    - 1) in odd characteristic, and for q = 2^k by the gcd with its trace
    r + r^2 + ... + r^(2^(kd-1)), summed with R.sub (= addition there)."""
    n = R.deg(f)
    if n == d:
        return [f]
    for _ in range(_SPLIT_DRAWS):
        r = R.random(n, rng)
        if R.deg(r) < 1:
            continue
        g = R.gcd(f, r)
        if 0 < R.deg(g) < n:
            break
        if R.char == 2:
            acc = total = R.rem(r, f)
            for _ in range(d * (R.q.bit_length() - 1) - 1):
                acc = R.rem(R.mul(acc, acc), f)
                total = R.sub(total, acc)
        else:
            total = R.sub(_powmod(R, r, (R.q**d - 1) // 2, f), R.one)
        g = R.gcd(f, total)
        if 0 < R.deg(g) < n:
            break
    else:
        raise ScopeError(
            f"no equal-degree split of a degree-{n} polynomial over F_{R.q} "
            f"in {_SPLIT_DRAWS} draws"
        )
    return _equal_degree(R, g, d, rng) + _equal_degree(R, R.quo(f, g), d, rng)


def _split(R, parts):
    """Sorted monic irreducible factors of the f whose distinct-degree split is parts."""
    rng = random.Random(0x5EED)
    out = []
    for part, d in parts:
        out.extend(_equal_degree(R, part, d, rng))
    out.sort(key=R.sort_key)
    return out


# ---------------------------------------------------------------------------
# squarefree decomposition over Q and F_q, written once over a ring R


def _squarefree(R, f):
    """[(g_i, m_i)] with the monic f = prod g_i^{m_i}, g_i monic squarefree
    (MCA 14.6).  In characteristic p the part the inner loop leaves, all
    of f where f' = 0, is some g(t^p), and the loop goes on with g."""
    out = []
    e = 1
    while R.deg(f) >= 1:
        g = R.gcd(f, R.derivative(f))
        w = R.quo(f, g)
        i = 1
        while R.deg(w) >= 1:
            y = R.gcd(w, g)
            z = R.quo(w, y)
            if R.deg(z) >= 1:
                out.append((z, i * e))
            w, g = y, R.quo(g, y)
            i += 1
        if R.deg(g) < 1:
            break
        f, e = R.pth_root(g), e * R.char
    return out


def squarefree_decomposition(f):
    """[(g_i, m_i)] with f monic = prod g_i^{m_i}, g_i monic squarefree,
    for a Poly over QQ or F_q."""
    return _squarefree(_PolyRing(f.field), f)


# ---------------------------------------------------------------------------
# factorization over Q


def _next_prime(n):
    n += 1
    while not is_prime(n):
        n += 1
    return n


# Primes are searched below _PRIME_BOUND; a search that finds no usable
# prime there raises ScopeError.
_PRIME_BOUND = 10**6
# Primes not dividing lc(f) that may see a repeated factor of f before
# the squarefree decomposition over Q takes over from the prime search.
_SQUAREFREE_TRIES = 3
# The search keeps the prime with the fewest modular factors among at
# most _CANDIDATE_PRIMES squarefree ones, and stops at the first with at
# most _FEW_FACTORS, for which recombination tries single factors only.
_CANDIDATE_PRIMES = 4
_FEW_FACTORS = 3
# Recombination subsets, over one _zassenhaus call, that are walked: put
# through the trailing-coefficient test, or built when it does not apply.
# The degree-32 Swinnerton-Dyer polynomial of sqrt 2, 3, 5, 7, 11 walks
# 39202; the degree-64 norm polynomial that `ram` factors at its root
# would walk about 2^21.
_RECOMBINATION_BUDGET = 2**16


def _prime_search(f, squarefree):
    """(count, p, distinct-degree split of f mod p) for the prime that
    _zassenhaus lifts from, or None if f is not proved squarefree.

    One search over the primes p < _PRIME_BOUND not dividing lc(f).  If
    f mod p is squarefree, so is f over Q: a square factor of f keeps its
    degree mod p.  Unless the caller knows f is squarefree, the search
    gives up with None once _SQUAREFREE_TRIES primes have seen a repeated
    factor before any prime proved f squarefree.  The number of modular
    factors is counted from the distinct-degree split alone (MCA 14.2).
    """
    b = f[-1]
    best = None
    tried = misses = 0
    p = 2
    while tried < _CANDIDATE_PRIMES:
        p = _next_prime(p)
        if p >= _PRIME_BOUND:
            break
        if b % p == 0:
            continue
        R = _IntListRing(p)
        fp = R.monic(R.reduce(f))
        if len(R.gcd(fp, R.derivative(fp))) != 1:
            misses += 1
            if best is None and not squarefree and misses == _SQUAREFREE_TRIES:
                return None
            continue
        parts = _distinct_degree(R, fp)
        count = sum((len(g) - 1) // d for g, d in parts)
        if best is None or count < best[0]:
            best = (count, p, parts)
        if count <= _FEW_FACTORS:
            break
        tried += 1
    if best is None:
        raise ScopeError(
            f"no good prime below {_PRIME_BOUND} for a degree-{len(f) - 1} factorization"
        )
    return best


def _zassenhaus(f, squarefree=False):
    """Irreducible primitive factors of a primitive f in Z[t], or None.

    None comes back only when squarefree is false and the prime search
    cannot prove f squarefree; f must then be split into squarefree parts
    first.
    """
    n = len(f) - 1
    if n == 1:
        return [list(f)]
    found = _prime_search(f, squarefree)
    if found is None:
        return None
    count, p, parts = found
    if count == 1:
        return [list(f)]
    mod_factors = _split(_IntListRing(p), parts)

    # b/lc(g) * g, for a factor g of f, has coefficients of size at most
    # binom(n-1, (n-1)//2) * |f|_2 (Mignotte; MCA Cor. 6.33), and so
    # has every candidate below: lift until p^l exceeds twice that
    half = math.comb(n - 1, (n - 1) // 2)
    bound_sq = 4 * half * half * sum(c * c for c in f)
    l = 1
    while p ** (2 * l) <= bound_sq:
        l += 1
    pl = p**l
    lifted = _hensel_lift(p, list(f), mod_factors, l)

    T = list(range(len(lifted)))
    factors = []
    cur = list(f)
    tried = 0
    s = 1
    while 2 * s <= len(T):
        b = cur[-1]
        b0 = b * cur[0]
        for S in itertools.combinations(T, s):
            tried += 1
            if tried > _RECOMBINATION_BUDGET:
                raise ScopeError(
                    f"recombination for a degree-{n} factorization needs more "
                    f"than {_RECOMBINATION_BUDGET} candidate subsets"
                )
            if b0:
                # trailing-coefficient test (Abbott, Shoup & Zimmermann):
                # a true G has G(0) | b*cur(0), and G(0) is nonzero
                g0 = b
                for i in S:
                    g0 = g0 * lifted[i][0] % pl
                if g0 > pl // 2:
                    g0 -= pl
                if not g0 or b0 % g0:
                    continue
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
            factors.append(_int_list_primitive(G))
            cur = _int_list_primitive(H)
            T = [i for i in T if i not in S]
            break
        else:
            s += 1
    factors.append(cur)
    return factors


def _hasse(f, k):
    """The k-th Hasse derivative, sum binom(i, k) a_i t^(i-k)."""
    return [math.comb(i, k) * c for i, c in enumerate(f)][k:]


def _rational_roots(f):
    """(roots, cofactor, certain) for a primitive f in Z[t] with lc(f) > 0:
    roots are [(primitive linear factor, multiplicity)], f is their product
    times the cofactor, and certain means the cofactor has no rational
    root.  A root mod p not confirmed with its full multiplicity (roots
    that collide mod p, or a root of a factor of higher degree) leaves the
    try uncertain.  Primes stay below _PRIME_BOUND; no ScopeError.
    """
    z = next(i for i, c in enumerate(f) if c)
    roots = [([0, 1], z)] if z else []
    f = list(f[z:])
    p = len(f) - 1
    for _ in range(_SQUAREFREE_TRIES):
        if len(f) == 1:
            return roots, f, True
        p = _next_prime(p)
        while f[-1] % p == 0:
            p = _next_prime(p)
        if p >= _PRIME_BOUND:
            break
        certain = True
        for x in range(p):
            k = 0
            while _int_list_at(_hasse(f, k), x, 1) % p == 0:
                k += 1
            if not k:
                continue
            g = _hasse(f, k - 1)
            dg = _hasse(g, 1)
            bound = 2 * (f[-1] + max(map(abs, f)))
            m, y = p, x
            while m <= bound:
                m = m * m
                y -= _int_list_at(g, y, 1) * pow(_int_list_at(dg, y, 1), -1, m)
                y %= m
            c = f[-1] * y % m
            r = Fraction(c - m if c > m // 2 else c, f[-1])
            mult, f, _, _ = _int_list_strip(f, [-r.numerator, r.denominator])
            if mult:
                roots.append(([-r.numerator, r.denominator], mult))
            certain = certain and mult == k
        if certain:
            return roots, f, True
    return roots, f, False


@lru_cache(maxsize=4096)
def _factor_q_monic(f):
    """Cached monic irreducible factors with multiplicity, sorted, of the
    primitive integer tuple f, which every scalar multiple shares.

    Rational roots are split off first.  A cofactor proved free of them is
    irreducible if its degree is 2 or 3; any other goes to _zassenhaus,
    whose prime search proves most cofactors squarefree; only when it
    cannot is a quadratic decided by its discriminant, and any other
    cofactor split by the squarefree decomposition over Q.
    """
    pieces, g, certain = _rational_roots(f)
    if len(g) == 1:
        parts = []
    elif certain and len(g) <= 4:
        parts = [g]
    else:
        parts = _zassenhaus(g)
    if parts is None and len(g) == 3:
        # only a square discriminant gives a quadratic a repeated factor
        disc = g[1] ** 2 - 4 * g[0] * g[2]
        parts = [g] if rational_sqrt(disc) is None else None
    if parts is None:
        pieces += [
            (part, mult)
            for h, mult in squarefree_decomposition(Poly.from_ints(QQ, g).monic())
            for part in _zassenhaus(h.int_form()[1], squarefree=True)
        ]
    else:
        pieces += [(part, 1) for part in parts]
    collected = [(Poly.from_ints(QQ, part).monic(), mult) for part, mult in pieces]
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
    return PrimePowerFactorization(f.lc, _factor_q_monic(f.int_form()[1]))


# ---------------------------------------------------------------------------
# factorization over finite fields


def _factor_monic(R, f):
    """Sorted monic irreducible factors, with multiplicity, of a monic f in R."""
    hs = [(h, m) for g, m in _squarefree(R, f) for h in _split(R, _distinct_degree(R, g))]
    return sorted(hs, key=lambda hm: R.sort_key(hm[0]))


@lru_cache(maxsize=4096)
def _factor_fp_monic(p, f):
    """_factor_monic of a monic f over F_p, given by its representatives."""
    return tuple((tuple(h), mult) for h, mult in _factor_monic(_IntListRing(p), f))


def factor_over_Fq(f):
    """Factor a nonzero polynomial over a finite field into monic irreducibles."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    field = f.field
    if not field.finite:
        raise TypeError("factor_over_Fq needs a finite coefficient field")
    unit = f.lc
    if isinstance(field, PrimeField):
        p = field.p
        inv = pow(unit.rep, -1, p)
        monic = tuple(c.rep * inv % p for c in f.coeffs)
        factors = [(Poly.from_ints(field, h), m) for h, m in _factor_fp_monic(p, monic)]
    else:
        factors = _factor_monic(_PolyRing(field), f.monic())
    return PrimePowerFactorization(unit, tuple(factors))


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

