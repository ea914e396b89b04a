"""Prime fields, extension fields, and quotient fields over QQ.

FFElem is a thin immutable wrapper around a representative; all arithmetic
dispatches to its field, and it is false exactly at zero, like an int or a
Fraction.  PrimeField(p) stores representatives as ints in [0, p).
QuotientField(base, modulus) is the residue ring base[t]/(modulus), a
field when the modulus is irreducible; it stores representatives as
fixed-length coefficient tuples in its base's list ring (poly._ListRing),
ints in [0, p) over a prime base and base elements otherwise, and does
its arithmetic there.  The same QuotientField class builds both
finite extension towers such as F_9 = F_3[u]/(u^2+1) and residue fields
Q[t]/(pi) of closed points over the rationals, so norm and inverse code is
written once.

Finite fields expose deterministic element enumeration, and its i-th
element by element_at(i) so that no field is ever listed; a fixed
multiplicative generator and, per p, its (q-1)/p-th power, both kept on
the field, discrete logs against it, and p-th power tests;
none of that exists for quotients over QQ, which instead get resultant norms.
The integer primality test and factorizer live here too, because building
GF(q) and finding a generator need them; factoring, hilbert and points
import them from here.

This module holds no polynomial algorithms.  GF takes its irreducibility
test from factoring at call time, since factoring imports this module.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

from .errors import Record, ScopeError
from .poly import Poly, _ListRing, _power, _zmul, _ztrim, resultant


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
        return _power(self, n, self.field.one)

    def __eq__(self, other):
        if isinstance(other, FFElem):
            return self.field is other.field and self.rep == other.rep
        if isinstance(other, int):
            return self == self.field.from_int(other)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.field), self.rep))

    def __bool__(self):
        return self.rep != self.field.zero.rep

    def __repr__(self):
        return self.field.format_element(self)


class PrimeField:
    """F_p, p proved prime by factor_int (whose answer GF(p) cached); reps in [0, p)."""

    finite = True

    def __init__(self, p):
        if p < 2 or factor_int(p).factors != ((p, 1),):
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
        return pow(a, -1, self.p)

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
    residue field of a closed point).  A representative is a length-d tuple,
    constant coefficient first, in the base's list ring (poly._ListRing):
    ints in [0, p) over a prime field F_p, so over GF(p^k) too, and base
    elements over QQ or an extension field.  Base elements cross only at
    the API: embed and coerce lift them, to_poly, element_key and
    format_element wrap the coefficients back.
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
        # the ring of the representatives; _lift takes a base element to
        # its coefficient there, _wrap takes a coefficient back
        if isinstance(base, PrimeField):
            self._ring = _ListRing(base.p)
            self._lift, self._wrap = attrgetter("rep"), base.element_at
        else:
            self._ring = _ListRing(field=base)
            self._lift = self._wrap = base.coerce
        R, d = self._ring, self.degree
        self._pi = [self._lift(c) for c in modulus.coeffs]
        self.zero = FFElem(self, self._rep(R.zero))
        self.one = FFElem(self, self._rep(R.one))
        # table[i] = t^(d+i) mod modulus, each row the last one times t
        self._red, row = [], [R.czero] * (d - 1) + list(R.one)
        for _ in range(d - 1):
            row = R.rem([R.czero] + row, self._pi)
            self._red.append(row)
        self._generator = None
        self._zeta = {}

    def _rep(self, cs):
        """The representative of the ring coefficients cs, at most d of
        them, padded with the ring's zero to length d."""
        cs = tuple(cs)
        return cs + (self._ring.czero,) * (self.degree - len(cs))

    def embed(self, e):
        """Image of a base-field element, or of anything the base coerces."""
        return FFElem(self, self._rep([self._lift(self.base.coerce(e))]))

    from_int = embed

    def coerce(self, v):
        if isinstance(v, FFElem) and v.field is self:
            return v
        return self.embed(v)

    def gen_elem(self):
        """The class of t."""
        return FFElem(self, self._rep(self._ring.gen))

    def from_poly(self, p):
        """Reduce a polynomial over the base field into this quotient."""
        if p.field is not self.base:
            raise TypeError("polynomial over the wrong base field")
        cs = [self._lift(c) for c in p.coeffs]
        return FFElem(self, self._rep(self._ring.rem(cs, self._pi)))

    def to_poly(self, e):
        e = self.coerce(e)
        return Poly(self.base, [self._wrap(c) for c in e.rep])

    def _add(self, a, b):
        return self._rep(self._ring.reduce([x + y for x, y in zip(a, b)]))

    def _neg(self, a):
        return self._rep(self._ring.reduce([-x for x in a]))

    def _mul(self, a, b):
        d, R = self.degree, self._ring
        out = _zmul(a, b, R.czero) + [R.czero] * (2 * d)
        # t^k for k >= d reduces straight to degree < d, so one ascending
        # pass reduces the product, and the ring reduces its entries once
        for k in range(d, 2 * d - 1):
            if not out[k]:
                continue
            for i, c in enumerate(self._red[k - d]):
                out[i] += out[k] * c
        return self._rep(R.reduce(out[:d]))

    def _inv(self, a):
        R = self._ring
        if self.degree == 2:
            # (a0 + a1 t)(a0 - a1 b - a1 t) = n  modulo t^2 + b t + c
            (a0, a1), (c, b) = a, self._pi[:2]
            conj = a0 - a1 * b
            n = _ztrim(R.reduce([a0 * conj + a1 * a1 * c]))
            if not n:
                if not any(a):
                    raise ZeroDivisionError("inverse of zero")
                raise ZeroDivisionError("representative is not invertible")
            n_inv = R.inv_lc(n)[0]
            return self._rep(R.reduce([conj * n_inv, -a1 * n_inv]))
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = R.xgcd(_ztrim(list(a)), self._pi)
        if len(g) != 1:
            raise ZeroDivisionError("representative is not invertible")
        # deg s < deg modulus, the Bezout cofactor's bound (MCA 3.15)
        return self._rep(s)

    def norm(self, e):
        """Norm down to the base field, as Res(modulus, representative)."""
        return resultant(self.modulus, self.to_poly(e))

    def elements(self):
        return map(self.element_at, range(self.order))

    def element_at(self, i):
        """The i-th element of elements(): the base-|base| digits of i,
        constant coefficient most significant, without listing them."""
        rep = []
        for _ in range(self.degree):
            i, r = divmod(i, self.base.order)
            rep.append(self._lift(self.base.element_at(r)))
        return FFElem(self, tuple(reversed(rep)))

    def element_key(self, e):
        return tuple(self.base.element_key(self._wrap(c)) for c in e.rep)

    def format_element(self, e):
        if not any(e.rep[1:]):
            return self.base.format_element(self._wrap(e.rep[0]))
        parts = [self.base.format_element(self._wrap(c)) for c in e.rep]
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


class PrimePowerFactorization(Record):
    """unit * product of factor^multiplicity with pairwise coprime factors.

    Polynomial factors are monic irreducibles sorted by (degree,
    coefficient sequence); integer factors are primes in increasing order.
    """

    __slots__ = ("unit", "factors")

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
    """A proper factor of the odd composite n within POLLARD_STEPS squarings."""
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


@lru_cache(maxsize=4096)
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
    if not e:
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
    if not e:
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
