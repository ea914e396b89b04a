"""Exact univariate polynomial and rational function arithmetic.

A polynomial is stored as a tuple of coefficients, lowest degree first,
with no trailing zeros, so the zero polynomial has an empty tuple and
deg(f) == len(coeffs) - 1.  Every polynomial carries the field its
coefficients live in: QQ (coefficients are fractions.Fraction) or one of
the finite fields from the fields module (coefficients are FFElem).
Coefficient types implement +, -, *, / and equality exactly; nothing in
this module ever rounds.

Rational functions are stored as coprime numerator/denominator pairs
with a monic denominator, which makes the representation canonical.
The parser builds each side as one Poly from its monomials c*t^k.  No
gcd is taken when a side is constant, and over QQ none when the integer
forms are coprime modulo a prime dividing neither leading entry: by
Gauss's lemma a common factor over Q is a primitive integer polynomial
whose reduction keeps its degree and divides both (MCA 6.2).

A polynomial over QQ also has an integer form, computed on first use,
kept on the polynomial and passed on to its scalar multiples: f ==
content * ints with ints a primitive integer tuple whose leading entry is
positive.  At a rational point c = a/b in lowest terms, b^n f(a/b) is an
integer found by homogeneous Horner, and when it vanishes, b*t - a
divides ints exactly in Z[t] (Gauss's lemma, MCA 6.2), so valuations and
unit parts there need no Fraction division.

Integer coefficient lists (lowest degree first) have every primitive
here: _int_list_* for the integer form, _z* for Hensel lifting.  The two
polynomial rings live here as well: _IntListRing, F_p[t] on such lists,
and _PolyRing, Poly over any field, QQ included.  Factoring and the
strip at a point run over either one.

Square-and-multiply (_power), Horner's rule (_horner) and Euclid's
algorithm (_gcd, _xgcd) are written once, here: powers of polynomials
and field elements, and factoring's _powmod, go through _power;
evaluation, composition and substitution through _horner; poly_gcd,
poly_xgcd, the rings' gcd and xgcd and the coprimality certificate
through _gcd and _xgcd, over a ring.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import zip_longest


class RationalField:
    """The field of rational numbers; elements are fractions.Fraction."""

    char = 0
    finite = False
    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def coerce(self, v):
        if isinstance(v, Fraction):
            return v
        if isinstance(v, int):
            return Fraction(v)
        raise TypeError(f"cannot coerce {v!r} into QQ")

    def element_key(self, v):
        return v

    def format_element(self, v):
        return str(v)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class Poly:
    """Dense univariate polynomial over an exact coefficient field."""

    __slots__ = ("field", "coeffs", "_int_form", "_hash")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == field.zero:
            cs.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_ints(cls, field, ints):
        return cls(field, [field.from_int(n) for n in ints])

    @classmethod
    def constant(cls, field, c):
        return cls(field, [field.coerce(c)])

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    @classmethod
    def one(cls, field):
        return cls(field, [field.one])

    @classmethod
    def gen(cls, field):
        """The polynomial t."""
        return cls(field, [field.zero, field.one])

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def lc(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    @property
    def is_constant(self):
        return len(self.coeffs) <= 1

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.field.zero

    def _wrap(self, other):
        if isinstance(other, Poly):
            if other.field is not self.field:
                raise TypeError("polynomials over different fields")
            return other
        return Poly.constant(self.field, other)

    def __add__(self, other):
        other = self._wrap(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.field, [self.coeff(i) + other.coeff(i) for i in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        if not isinstance(other, Poly):
            c = self.field.coerce(other)
            out = Poly(self.field, [a * c for a in self.coeffs])
            form = getattr(self, "_int_form", None)
            if form is not None and c:
                object.__setattr__(out, "_int_form", (form[0] * c, form[1]))
            return out
        other = self._wrap(other)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == self.field.zero:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, Poly.one(self.field))

    def __divmod__(self, other):
        other = self._wrap(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        field = self.field
        rem = list(self.coeffs)
        dd = other.degree
        inv_lc = field.one / other.lc
        quo = [field.zero] * max(len(rem) - dd, 0)
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == field.zero:
                continue
            q = c * inv_lc
            quo[i - dd] = q
            for j, b in enumerate(other.coeffs):
                rem[i - dd + j] = rem[i - dd + j] - q * b
        return Poly(field, quo), Poly(field, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("not an exact polynomial division")
        return q

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.field is other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((id(self.field), self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    def monic(self):
        if self.is_zero:
            return self
        return self * (self.field.one / self.lc)

    def derivative(self):
        field = self.field
        return Poly(
            field,
            [field.from_int(i) * c for i, c in enumerate(self.coeffs)][1:],
        )

    def int_form(self):
        """(content, ints) with self == content * ints, ints a primitive integer
        tuple with a positive leading entry; over QQ only, computed once."""
        form = getattr(self, "_int_form", None)
        if form is not None:
            return form
        if self.field is not QQ:
            raise TypeError("integer forms exist only over QQ")
        if not self.coeffs:
            raise ValueError("the zero polynomial has no integer form")
        d = math.lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * d // c.denominator for c in self.coeffs]
        ints = _int_list_primitive(ints)
        form = (self.coeffs[-1] / ints[-1], tuple(ints))
        object.__setattr__(self, "_int_form", form)
        return form

    def evaluate(self, x):
        x = self.field.coerce(x) if not hasattr(x, "field") else x
        return _horner(self.coeffs, x, self.field.zero)

    def compose(self, other):
        """self(other(t)) for a polynomial argument."""
        return _horner(self.coeffs, self._wrap(other), Poly.zero(self.field))

    def sort_key(self):
        return (self.degree, tuple(self.field.element_key(c) for c in self.coeffs))

    def __repr__(self):
        return f"Poly({poly_str(self)})"


def _power(base, n, one, mul=operator.mul):
    """base**n for an integer n >= 0 by square-and-multiply, with mul the
    product; the result starts as base at the lowest set bit, one is
    returned only for n = 0, and base is squared only while bits remain."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return one if result is None else result


def _horner(coeffs, x, zero):
    """sum of coeffs[i] * x**i by Horner's rule, starting from zero."""
    acc = zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _int_list_primitive(a):
    """a divided by its content, with a positive last entry."""
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [c // g for c in a]


def _int_list_at(a, num, den):
    """den^n * a(num/den) for the integer list a of degree n."""
    acc, scale = 0, 1
    for c in reversed(a):
        acc, scale = acc * num + c * scale, scale * den
    return acc


def _int_list_pseudo_divmod(a, b):
    """(k, q, r) with lc(b)^k a = q b + r in Z[t], deg r < deg b; a step
    scales by lc(b) > 0 only if it does not divide the leading entry."""
    r, lb, db = list(a), b[-1], len(b) - 1
    q, k = [0] * max(len(r) - db, 0), 0
    for i in range(len(r) - 1, db - 1, -1):
        c = r[i]
        if not c:
            continue
        if c % lb:
            r, q, k = [x * lb for x in r[: i + 1]], [x * lb for x in q], k + 1
            c = r[i]
        c //= lb
        q[i - db] = c
        for j, y in enumerate(b):
            r[i - db + j] -= c * y
    return k, _ztrim(q), _ztrim(r[:db])


def _int_list_strip(a, b):
    """(w, g, k, r) for a nonzero integer list a and a primitive b with
    lc(b) > 0: a = b^w g, b not dividing g, and lc(b)^k g = r != 0
    modulo b.  Each exact quotient is integral (Gauss's lemma, MCA 6.2),
    so pseudo-division finds it without scaling a step.  A linear
    b = den t - num takes Horner's rule, r = [den^m g(num/den)] with
    m = deg g, and q[i-1] = (g[i] + num q[i]) / den for the quotient."""
    w = 0
    if len(b) == 2:
        num, den = -b[0], b[1]
        h = _int_list_at(a, num, den)
        while h == 0:
            q = [0] * len(a)
            for i in range(len(a) - 1, 0, -1):
                q[i - 1] = (a[i] + num * q[i]) // den
            w, a = w + 1, q[:-1]
            h = _int_list_at(a, num, den)
        return w, a, len(a) - 1, [h]
    k, q, r = _int_list_pseudo_divmod(a, b)
    while not r:
        w, a = w + 1, q
        k, q, r = _int_list_pseudo_divmod(a, b)
    return w, a, k, r


def _ztrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _ztrunc(a, m):
    """Symmetric representatives modulo m."""
    half = m // 2
    return _ztrim([r - m if r > half else r for r in (c % m for c in a)])


def _zadd(a, b):
    return _ztrim([x + y for x, y in zip_longest(a, b, fillvalue=0)])


def _zsub(a, b):
    return _ztrim([x - y for x, y in zip_longest(a, b, fillvalue=0)])


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
    rem = _ztrim([c % m for c in a])
    b = _ztrim([c % m for c in b])
    inv = pow(b[-1], -1, m)
    db = len(b) - 1
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        q = c * inv % m
        quo[i - db] = q
        for j, y in enumerate(b):
            rem[i - db + j] = (rem[i - db + j] - q * y) % m
    return _ztrim(quo), _ztrim(rem)


# ---------------------------------------------------------------------------
# Polynomial rings over a field, for the algorithms written over a ring R


def _gcd(R, a, b):
    """Monic gcd in R by Euclid (MCA ch. 3) up to a constant remainder b:
    monic(b) = 1 when b is nonzero, else a made monic (0 for a = b = 0)."""
    while R.deg(b) > 0:
        a, b = b, R.rem(a, b)
    return R.monic(b if R.deg(b) == 0 else a)


def _xgcd(R, a, b):
    """(g, s, t) with s*a + t*b = g, the monic gcd in R, by the extended
    Euclidean algorithm (MCA ch. 3); (0, 1, 0) for a = b = 0."""
    sa, sb, ta, tb = R.one, R.zero, R.zero, R.one
    while R.deg(b) >= 0:
        q, r = R.divmod(a, b)
        a, b = b, r
        sa, sb = sb, R.sub(sa, R.mul(q, sb))
        ta, tb = tb, R.sub(ta, R.mul(q, tb))
    u = R.inv_lc(a) if R.deg(a) >= 0 else R.one
    return R.mul(a, u), R.mul(sa, u), R.mul(ta, u)


class _IntListRing:
    """F_p[t] on integer lists (lowest degree first, entries in [0, p)), p
    any prime; the methods take symmetric representatives too, as Hensel
    lifting passes them."""

    zero, one, gen = (), (1,), (0, 1)
    gcd, xgcd = _gcd, _xgcd

    def __init__(self, p):
        self.q = self.char = p

    def deg(self, a):
        return len(a) - 1

    def reduce(self, a):
        """Representatives in [0, p)."""
        return _ztrim([c % self.q for c in a])

    def sub(self, a, b):
        return self.reduce(_zsub(a, b))

    def mul(self, a, b):
        return self.reduce(_zmul(a, b))

    def divmod(self, a, b):
        return _zdivmod_mod(a, b, self.q)

    def rem(self, a, b):
        return _zdivmod_mod(a, b, self.q)[1]

    def quo(self, a, b):
        return _zdivmod_mod(a, b, self.q)[0]

    def inv_lc(self, a):
        """1/lc(a) as a constant of the ring."""
        return [pow(a[-1], -1, self.q)]

    def monic(self, a):
        inv = pow(a[-1], -1, self.q) if a else 0
        return [c * inv % self.q for c in a]

    def derivative(self, a):
        return self.reduce([i * c for i, c in enumerate(a)][1:])

    def pth_root(self, a):
        """g with a = g(t^p); each entry of F_p is its own p-th root."""
        return a[:: self.q]

    def random(self, n, rng):
        return _ztrim([rng.randrange(self.q) for _ in range(n)])

    def sort_key(self, g):
        return (len(g), g)


class _PolyRing:
    """K[t] on Poly, K any field: QQ for the squarefree loop over Q, or an
    extension field GF(p^k), k >= 2, for factoring and the strip there."""

    deg = staticmethod(operator.attrgetter("degree"))
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    divmod = staticmethod(divmod)
    rem = staticmethod(operator.mod)
    quo = staticmethod(Poly.exact_div)
    monic = staticmethod(Poly.monic)
    derivative = staticmethod(Poly.derivative)
    sort_key = staticmethod(Poly.sort_key)

    def __init__(self, field):
        self.field, self.char = field, field.char
        self.q = field.order if field.finite else None
        self.zero, self.one, self.gen = Poly.zero(field), Poly.one(field), Poly.gen(field)

    # a method, not staticmethod(poly_gcd), so that the module-level name is
    # looked up per call and bench/tracer.py's wrapper on it counts the call
    def gcd(self, a, b):
        return poly_gcd(a, b)

    def inv_lc(self, a):
        return Poly(self.field, [self.field.one / a.lc])

    def pth_root(self, f):
        """Inverse Frobenius on exponents: f(t) = g(t^p) gives back g."""
        p = self.char
        return Poly(self.field, [c ** (self.q // p) for c in f.coeffs[::p]])

    def random(self, n, rng):
        """n coefficients, each the randrange(q)-th of field.elements()."""
        field = self.field
        return Poly(field, [field.element_at(rng.randrange(self.q)) for _ in range(n)])


# The prime of the coprimality certificate: large enough that it almost
# never divides a leading coefficient or a resultant met in practice.
_COPRIME_PRIME = 2**31 - 1


def _coprime_mod_prime(f, g):
    """Whether f, g over QQ have integer forms coprime mod _COPRIME_PRIME,
    which divides neither leading entry: then they are coprime over Q."""
    if f.field is not QQ:
        return False
    a, b, m = f.int_form()[1], g.int_form()[1], _COPRIME_PRIME
    if a[-1] % m == 0 or b[-1] % m == 0:
        return False
    return len(_IntListRing(m).gcd(a, b)) == 1


def poly_gcd(f, g):
    """Monic gcd; poly_gcd(0, 0) is 0."""
    return _gcd(_PolyRing(f.field), f, g)


def poly_xgcd(f, g):
    """(d, s, t) with d = s*f + t*g and d the monic gcd; (0, 1, 0) for f = g = 0."""
    return _xgcd(_PolyRing(f.field), f, g)


def resultant(f, g):
    """Res(f, g) = lc(f)^deg(g) * product of g over the roots of f.

    Conventions: Res(f, c) = c^deg(f) for constant c, Res(c, g) = c^deg(g),
    and Res(f, 0) = 0 once deg(f) >= 1.  The first argument must be nonzero.
    """
    if f.is_zero:
        raise ValueError("resultant: first argument must be nonzero")
    field = f.field
    if f.degree == 0:
        if g.is_zero:
            return field.one
        return f.lc ** g.degree
    acc = field.one
    a, b = f, g
    while True:
        if b.is_zero:
            return field.zero
        if b.degree == 0:
            return acc * b.lc ** a.degree
        if b.degree >= a.degree:
            r = b % a
            k = r.degree if not r.is_zero else 0
            acc = acc * a.lc ** (b.degree - k)
            if r.is_zero:
                return field.zero
            b = r
        else:
            if (a.degree * b.degree) % 2 == 1:
                acc = -acc
            a, b = b, a


def lagrange_interpolate(field, points):
    """The unique polynomial of degree < len(points) through the points."""
    result = Poly.zero(field)
    xs = [field.coerce(x) for x, _ in points]
    for i, (_, yi) in enumerate(points):
        num = Poly.one(field)
        denom = field.one
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * Poly(field, [-xj, field.one])
            denom = denom * (xs[i] - xj)
        result = result + num * (field.coerce(yi) / denom)
    return result


class RationalFunction:
    """Quotient of polynomials in canonical form (coprime, monic denominator)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = Poly.one(num.field)
        if num.field is not den.field:
            raise TypeError("numerator and denominator over different fields")
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero:
            den = Poly.one(num.field)
        else:
            if not (num.is_constant or den.is_constant or _coprime_mod_prime(num, den)):
                g = poly_gcd(num, den)
                if g.degree >= 1:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
            inv = num.field.one / den.lc
            if den.lc != num.field.one:
                num = num * inv
                den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def constant(cls, field, c):
        return cls(Poly.constant(field, c))

    @property
    def field(self):
        return self.num.field

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_constant(self):
        return self.num.is_constant and self.den.is_constant

    def constant_value(self):
        if not self.is_constant:
            raise ValueError("not a constant rational function")
        return self.num.coeff(0) / self.den.coeff(0)

    @property
    def is_polynomial(self):
        return self.den.degree == 0

    @classmethod
    def coerce(cls, field, v):
        """v in field(t): a rational function or polynomial over field, or a
        constant that field.coerce takes."""
        if isinstance(v, Poly):
            v = cls(v)
        elif not isinstance(v, RationalFunction):
            return cls.constant(field, v)
        if v.field is not field:
            raise TypeError(f"{v!r} is not over {field!r}")
        return v

    def __add__(self, other):
        other = self.coerce(self.field, other)
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self.coerce(self.field, other))

    def __rsub__(self, other):
        return self.coerce(self.field, other) - self

    def __mul__(self, other):
        other = self.coerce(self.field, other)
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.coerce(self.field, other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self.coerce(self.field, other) / self

    def inverse(self):
        """den/num: already coprime, so only the denominator is made monic."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        inv = self.field.one / self.num.lc
        out = object.__new__(RationalFunction)
        object.__setattr__(out, "num", self.den * inv)
        object.__setattr__(out, "den", self.num * inv)
        return out

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        return RationalFunction(self.num**n, self.den**n)

    def __eq__(self, other):
        if isinstance(other, (RationalFunction, Poly, int, Fraction)) or hasattr(
            other, "field"
        ):
            other = self.coerce(self.field, other)
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def evaluate(self, x):
        d = self.den.evaluate(x)
        if d == self.field.zero:
            raise ZeroDivisionError("pole at the evaluation point")
        return self.num.evaluate(x) / d

    def substitute(self, r):
        """self(r(s)) for a rational function r, computed exactly."""
        zero = RationalFunction(Poly.zero(self.field))
        return _horner(self.num.coeffs, r, zero) / _horner(self.den.coeffs, r, zero)

    def __repr__(self):
        return f"RationalFunction({ratfunc_str(self)})"


def _coeff_str(s):
    if any(op in s[1:] for op in "+-") or "/" in s:
        return f"({s})", False
    if s.startswith("-"):
        return s[1:], True
    return s, False


def poly_str(f):
    """Render with descending powers, explicit '*', and '^' for powers."""
    return terms_str(map(f.field.format_element, f.coeffs))


def terms_str(texts):
    """poly_str from the coefficients' texts, lowest degree first; a
    coefficient that prints as "0" is zero in every field here."""
    parts = []
    for i, s in reversed(list(enumerate(texts))):
        if s == "0":
            continue
        body, negative = _coeff_str(s)
        if i == 0:
            term = body
        else:
            tpow = "t" if i == 1 else f"t^{i}"
            term = tpow if body == "1" else f"{body}*{tpow}"
        if not parts:
            parts.append(f"-{term}" if negative else term)
        else:
            parts.append(f"- {term}" if negative else f"+ {term}")
    return " ".join(parts) or "0"


def ratfunc_str(h):
    if h.is_polynomial:
        return poly_str(h.num)
    num = poly_str(h.num)
    den = poly_str(h.den)
    if h.num.degree >= 1 or "/" in num or "-" in num[1:] or "+" in num:
        num = f"({num})"
    if h.den.degree >= 1:
        den = f"({den})"
    return f"{num}/{den}"
