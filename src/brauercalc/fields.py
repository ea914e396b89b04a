"""Prime fields, extension fields, and quotient fields over QQ.

FFElem is a thin immutable wrapper around a representative; all arithmetic
dispatches to its field.  PrimeField(p) stores representatives as ints in
[0, p).  QuotientField(base, modulus) stores representatives as fixed-length
tuples of base elements (a residue ring base[t]/(modulus), which is a field
when the modulus is irreducible); over a prime base, products run on
their integer representatives.  The same QuotientField class builds both
finite extension towers such as F_9 = F_3[u]/(u^2+1) and residue fields
Q[t]/(pi) of closed points over the rationals, so norm and inverse code is
written once.

Finite fields expose deterministic element enumeration, and its i-th
element by element_at(i) so that no field is ever listed; a fixed
multiplicative generator and, per p, its (q-1)/p-th power, both kept on
the field, discrete logs against it, and p-th power tests;
none of that exists for quotients over QQ, which instead get resultant norms.
The integer primality test and factorizer live here too, because building
GF(q) and finding a generator need them; factoring re-exports them.

This module holds no polynomial algorithms.  GF takes its irreducibility
test from factoring at call time, since factoring imports this module.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ScopeError
from .poly import Poly, _zmul, poly_xgcd, resultant


class FFElem:
    __slots__ = ("field", "rep")

    def __init__(self, field, rep):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rep", rep)

    def __setattr__(self, name, value):
        raise AttributeError("FFElem is immutable")

    def _coerce(self, other):
        # None means "not ours": operators hand the call back to Python so
        # the other operand's reflected method (Poly.__rmul__ etc.) can run
        if isinstance(other, FFElem):
            if other.field is self.field:
                return other
            raise TypeError("elements of different fields")
        if isinstance(other, int):
            return self.field.from_int(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FFElem(self.field, self.field._add(self.rep, other.rep))

    __radd__ = __add__

    def __neg__(self):
        return FFElem(self.field, self.field._neg(self.rep))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FFElem(self.field, self.field._mul(self.rep, other.rep))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def inverse(self):
        return FFElem(self.field, self.field._inv(self.rep))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, FFElem):
            return self.field is other.field and self.rep == other.rep
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.rep))

    @property
    def is_zero(self):
        return self.rep == self.field.zero.rep

    def __repr__(self):
        return self.field.format_element(self)


class PrimeField:
    """F_p for prime p; representatives are ints in [0, p)."""

    finite = True

    def __init__(self, p):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.char = p
        self.order = p
        self.zero = FFElem(self, 0)
        self.one = FFElem(self, 1)
        self._zeta = {}

    def from_int(self, n):
        return FFElem(self, n % self.p)

    def coerce(self, v):
        if isinstance(v, FFElem):
            if v.field is self:
                return v
            raise TypeError("element of a different field")
        if isinstance(v, int):
            return self.from_int(v)
        raise TypeError(f"cannot coerce {v!r}")

    def _add(self, a, b):
        return (a + b) % self.p

    def _neg(self, a):
        return (-a) % self.p

    def _mul(self, a, b):
        return (a * b) % self.p

    def _inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def elements(self):
        return map(self.element_at, range(self.p))

    def element_at(self, i):
        """The i-th element of elements(), without listing them."""
        return FFElem(self, i)

    def element_key(self, e):
        return e.rep

    def format_element(self, e):
        return str(e.rep)

    def __repr__(self):
        return f"GF({self.p})"


class QuotientField:
    """base[t]/(modulus) for a monic irreducible modulus of degree >= 2.

    Works over finite base fields (giving F_{q^d}) and over QQ (giving the
    residue field of a closed point).  Representatives are length-d tuples of
    base elements, constant coefficient first.
    """

    def __init__(self, base, modulus):
        if not modulus.is_monic or modulus.degree < 2:
            raise ValueError("modulus must be monic of degree at least 2")
        if modulus.field is not base:
            raise TypeError("modulus must live over the base field")
        self.base = base
        self.modulus = modulus
        self.degree = modulus.degree
        self.char = base.char
        self.finite = base.finite
        if self.finite:
            self.order = base.order**self.degree
        d = self.degree
        self.zero = FFElem(self, tuple([base.zero] * d))
        one = [base.one] + [base.zero] * (d - 1)
        self.one = FFElem(self, tuple(one))
        # table[i] = representative tuple of t^(d+i) mod modulus
        self._red = self._reduction_table()
        # over a prime base, the same table on the integer representatives
        self._red_ints = None
        if isinstance(base, PrimeField):
            self._red_ints = [[c.rep for c in row] for row in self._red]
        self._generator = None
        self._zeta = {}

    def _reduction_table(self):
        d = self.degree
        base = self.base
        rows = []
        cur = [-c for c in self.modulus.coeffs[:d]]
        rows.append(tuple(cur))
        for _ in range(d - 2):
            nxt = [base.zero] + cur[: d - 1]
            top = cur[d - 1]
            first = rows[0]
            nxt = [nxt[i] + top * first[i] for i in range(d)]
            cur = nxt
            rows.append(tuple(cur))
        return rows

    def from_int(self, n):
        rep = [self.base.from_int(n)] + [self.base.zero] * (self.degree - 1)
        return FFElem(self, tuple(rep))

    def embed(self, e):
        """Image of a base-field element."""
        e = self.base.coerce(e)
        rep = [e] + [self.base.zero] * (self.degree - 1)
        return FFElem(self, tuple(rep))

    def coerce(self, v):
        if isinstance(v, FFElem):
            if v.field is self:
                return v
            if v.field is self.base:
                return self.embed(v)
            raise TypeError("element of a different field")
        if isinstance(v, int):
            return self.from_int(v)
        try:
            return self.embed(self.base.coerce(v))
        except TypeError:
            raise TypeError(f"cannot coerce {v!r}")

    def gen_elem(self):
        """The class of t."""
        rep = [self.base.zero, self.base.one] + [self.base.zero] * (self.degree - 2)
        return FFElem(self, tuple(rep))

    def from_poly(self, p):
        """Reduce a polynomial over the base field into this quotient."""
        if p.field is not self.base:
            raise TypeError("polynomial over the wrong base field")
        r = p % self.modulus
        rep = [r.coeff(i) for i in range(self.degree)]
        return FFElem(self, tuple(rep))

    def to_poly(self, e):
        e = self.coerce(e)
        return Poly(self.base, list(e.rep))

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _mul(self, a, b):
        d = self.degree
        base = self.base
        if self._red_ints is not None:
            # t^k for k >= d reduces straight to degree < d, so the integer
            # product is reduced mod p once, at the end
            out = _zmul([x.rep for x in a], [y.rep for y in b]) + [0] * (2 * d)
            for k in range(d, 2 * d - 1):
                for i, c in enumerate(self._red_ints[k - d]):
                    out[i] += out[k] * c
            return tuple(FFElem(base, c % base.p) for c in out[:d])
        out = [base.zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if x == base.zero:
                continue
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        for k in range(2 * d - 2, d - 1, -1):
            top = out[k]
            if top == base.zero:
                continue
            row = self._red[k - d]
            for i in range(d):
                out[i] = out[i] + top * row[i]
            out[k] = base.zero
        return tuple(out[:d])

    def _inv(self, a):
        if self.degree == 2:
            # (a0 + a1 t)(a0 - a1 b - a1 t) = n  modulo t^2 + b t + c
            a0, a1 = a
            c, b = self.modulus.coeffs[:2]
            conj = a0 - a1 * b
            n = a0 * conj + a1 * a1 * c
            if n == self.base.zero:
                if a0 == a1 == self.base.zero:
                    raise ZeroDivisionError("inverse of zero")
                raise ZeroDivisionError("representative is not invertible")
            n_inv = 1 / n
            return (conj * n_inv, -a1 * n_inv)
        p = Poly(self.base, list(a))
        if p.is_zero:
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = poly_xgcd(p, self.modulus)
        if g.degree != 0:
            raise ZeroDivisionError("representative is not invertible")
        s = s % self.modulus
        rep = [s.coeff(i) for i in range(self.degree)]
        return tuple(rep)

    def norm(self, e):
        """Norm down to the base field, as Res(modulus, representative)."""
        e = self.coerce(e)
        p = self.to_poly(e)
        if p.is_zero:
            return self.base.zero
        return resultant(self.modulus, p)

    def elements(self):
        return map(self.element_at, range(self.order))

    def element_at(self, i):
        """The i-th element of elements(): the base-|base| digits of i,
        constant coefficient most significant, without listing them."""
        rep = []
        for _ in range(self.degree):
            i, r = divmod(i, self.base.order)
            rep.append(self.base.element_at(r))
        return FFElem(self, tuple(reversed(rep)))

    def element_key(self, e):
        return tuple(self.base.element_key(c) for c in e.rep)

    def format_element(self, e):
        if all(c == self.base.zero for c in e.rep[1:]):
            return self.base.format_element(e.rep[0])
        parts = [self.base.format_element(c) for c in e.rep]
        return "[" + ",".join(parts) + "]"

    def __repr__(self):
        if self.finite:
            return f"GF({self.order})"
        return "QQ[t]/(...)"


# Trial divisors and Miller-Rabin bases.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
# The least strong pseudoprime to every prime base 2..41 (Sorensen &
# Webster 2017): below it those 13 bases make Miller-Rabin exact.
PSI13 = 3317044064679887385961981


def _pocklington(n):
    """Whether n, a strong probable prime to every base in _SMALL_PRIMES,
    is prime, by Pocklington's test on the factored n - 1 >= sqrt n: if
    each prime q | n - 1 has a base a with gcd(a^((n-1)/q) - 1, n) = 1
    (a^(n-1) = 1 holds already), every prime factor of n is 1 mod n - 1.
    A gcd strictly between 1 and n proves n composite.  ScopeError if n - 1
    cannot be factored within factor_int's budgets or no base serves a q.
    """
    for q, _ in factor_int(n - 1):
        for a in _SMALL_PRIMES:
            g = math.gcd(pow(a, (n - 1) // q, n) - 1, n)
            if g == 1:
                break
            if g != n:
                return False
        else:
            raise ScopeError(
                f"no Pocklington certificate for a {n.bit_length()}-bit probable "
                f"prime from the bases {_SMALL_PRIMES[0]}..{_SMALL_PRIMES[-1]}"
            )
    return True


def is_prime(n):
    """Exact primality.  Below PSI13 the Miller-Rabin bases 2..41 decide;
    from PSI13 on, every base in _SMALL_PRIMES runs, a witness proves n
    composite, and otherwise _pocklington must prove n prime."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES if n >= PSI13 else _SMALL_PRIMES[:13]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < PSI13 or _pocklington(n)


@dataclass(frozen=True)
class PrimePowerFactorization:
    """unit * product of factor^multiplicity with pairwise coprime factors.

    Polynomial factors are monic irreducibles sorted by (degree,
    coefficient sequence); integer factors are primes in increasing order.
    """

    unit: object
    factors: tuple

    def expand(self):
        acc = self.unit
        for f, e in self.factors:
            acc = acc * f**e
        return acc

    def __iter__(self):
        return iter(self.factors)


# Squarings Pollard-Brent may spend on one composite (about 0.5 s at 133
# bits on a 2-core Xeon); q^d - 1 for q <= 13, d <= 32 needs at most 56k.
POLLARD_STEPS = 2**19
# The largest cofactor, in bits, that factor_int tests for primality or
# hands to Pollard-Brent, whose whole budget takes about 1.3 s at 512 bits;
# one Miller-Rabin base takes 6.6 s at 13283 bits.  The tests need 133.
POLLARD_BITS = 512


def _pollard_brent(n, rng):
    """A proper factor of the composite n within POLLARD_STEPS squarings."""
    if n % 2 == 0:
        return 2
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        while g == 1:
            steps += 2 * r
            if steps > POLLARD_STEPS:
                raise ScopeError(f"no factor in {POLLARD_STEPS} Pollard-Brent steps")
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factor_int(n):
    """Prime factorization of a nonzero integer as a PrimePowerFactorization."""
    if n == 0:
        raise ValueError("cannot factor zero")
    unit = 1 if n > 0 else -1
    n = abs(n)
    counts = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            counts[p] = counts.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    rng = None  # seeded only for a composite cofactor
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if m.bit_length() > POLLARD_BITS:
            raise ScopeError(
                f"a {m.bit_length()}-bit cofactor is over the {POLLARD_BITS}-bit "
                f"limit of factor_int"
            )
        if is_prime(m):
            counts[m] = counts.get(m, 0) + 1
            continue
        rng = rng or random.Random(0x5EED)
        d = _pollard_brent(m, rng)
        stack.append(d)
        stack.append(m // d)
    factors = tuple(sorted(counts.items()))
    return PrimePowerFactorization(unit, factors)


# Nonzero elements multiplicative_generator tries before ScopeError.  The
# tests and the bench need at most 20 (F_169), but modulo t^2 + 1 no k*t
# generates, as (k*t)^2 is in F_p; 2^10 tries in F_{(2^31-1)^2} take 1 s.
GENERATOR_TRIES = 2**10


def multiplicative_generator(field):
    """A fixed generator of the unit group of a finite field, the first in
    elements() order."""
    if not field.finite:
        raise TypeError("generators only exist for finite fields")
    cached = getattr(field, "_generator", None)
    if cached is not None:
        return cached
    n = field.order - 1
    prime_divs = [q for q, _ in factor_int(n)]
    for i in range(1, min(field.order, GENERATOR_TRIES + 1)):
        e = field.element_at(i)
        if all(e ** (n // q) != field.one for q in prime_divs):
            field._generator = e
            return e
    raise ScopeError(f"no generator of GF({field.order}) in {GENERATOR_TRIES} tries")


def discrete_log(e):
    """Exponent of e against the fixed generator, by walking g^k from k = 0;
    the brute-force reference for pth_power_exponent."""
    field = e.field
    if not field.finite:
        raise TypeError("discrete logs only exist in finite fields")
    if e.is_zero:
        raise ZeroDivisionError("zero has no discrete log")
    g = multiplicative_generator(field)
    acc = field.one
    k = 0
    while acc != e:
        acc = acc * g
        k += 1
    return k


def is_pth_power_finite(e, p):
    """Whether a nonzero finite-field element is a p-th power."""
    field = e.field
    if e.is_zero:
        raise ValueError("p-th power test needs a nonzero element")
    n = field.order - 1
    if n % p != 0:
        return True
    return e ** (n // p) == field.one


def pth_power_exponent(e, p):
    """Discrete log of e modulo p (0 exactly for p-th powers): the k in
    [0, p) with e^(n/p) = (g^(n/p))^k, for n = q - 1 and g the fixed
    generator (Pohlig-Hellman projection onto the p-part; no log table)."""
    field = e.field
    n = field.order - 1
    if n % p != 0:
        return 0
    target = e ** (n // p)
    zeta = field._zeta.get(p)
    if zeta is None:
        zeta = field._zeta[p] = multiplicative_generator(field) ** (n // p)
    acc = field.one
    for k in range(p):
        if acc == target:
            return k
        acc = acc * zeta
    # every unit matches some k
    raise ZeroDivisionError("zero has no discrete log")


@lru_cache(maxsize=None)
def GF(q):
    """The finite field with q elements (q a prime power), built once."""
    fac = factor_int(q).factors if q >= 2 else ()
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p, k), = fac
    if k == 1:
        return PrimeField(p)
    # factoring imports fields, so the test is imported at call time
    from .factoring import is_irreducible

    base = GF(p)
    # the first monic irreducible of degree k, tails (c_0, ..., c_{k-1}) in
    # lexicographic order read off the digits of i; c_0 = 0 makes t a factor
    for i in range(p ** (k - 1), p**k):
        tail = [i // p ** (k - 1 - j) % p for j in range(k)]
        f = Poly.from_ints(base, tail + [1])
        if is_irreducible(f):
            return QuotientField(base, f)
    raise AssertionError("no irreducible polynomial found")


def rational_sqrt(c):
    """The nonnegative square root of a rational c, or None if c is no square."""
    if c < 0:
        return None
    n, d = c.numerator, c.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def rational_is_square(c):
    """Exact square test for a rational number."""
    return rational_sqrt(c) is not None
