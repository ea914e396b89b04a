"""Exact univariate polynomial and rational function arithmetic.

A polynomial carries its coefficient field, QQ (coefficients are
fractions.Fraction) or one of the finite fields from the fields module
(coefficients are FFElem), and coeffs, lowest degree first with no
trailing zeros, so deg(f) == len(coeffs) - 1 and zero has none.
Coefficient types implement +, -, *, / and equality exactly; nothing in
this module ever rounds.

Rational functions are stored as coprime numerator/denominator pairs
with a monic denominator, which makes the representation canonical.  A
polynomial takes no gcd, nor does a constant side; over QQ a product or
quotient cancels crosswise (_henrici) and every gcd runs on integer forms,
a power of a coprime pair is coprime, and only a sum takes a gcd of sums.

Over QQ the integer form is the representation: f == content * ints,
ints a primitive integer tuple with a positive leading entry, (0, ()) for
zero.  Hash, equality, sums and products use it, multiplying in Z[t]
(primitive times primitive is primitive: Gauss's lemma, MCA 6.2); the
Fraction coefficients are built on first read, as is the form of a
polynomial built from them.  At c = a/b in lowest terms, b^n f(a/b) is
an integer found by homogeneous Horner, and when it vanishes, b*t - a
divides ints exactly in Z[t], so valuations, unit parts and gcds with
b*t - a need no Fraction division and no Euclid.

Coefficient lists (lowest degree first) have one kernel for every ring
of coefficients (ints, ints mod m, Fractions, field elements), each zero
tested by truthiness: _ztrim, _zadd, _zmul, _zdivmod and _hasse.  Poly,
the residue field product, the rings, Hensel lifting and the strip at a
point run on it; _int_list_* serve the integer form.  The polynomial
rings live here as well: _ListRing, K[t] on coefficient lists, of
integers mod m or of a field's elements; and _PrimitiveRing, Q[t] up to
units on primitive integer lists.  Each field builds its list ring once,
as field.list_ring (F_p's on ints in [0, p)), which lifts coefficients in
and wraps them back: Poly's divmod, poly_gcd off QQ, resultant, factoring
over F_q, the strip at a point and residue fields compute there.

Square-and-multiply (_power), Horner's rule (_horner) and Euclid's
algorithm (_euclid) are written once too: powers of polynomials and
field elements, and factoring's _powmod, go through _power; evaluation
and substitution through _horner; every gcd (_gcd), Bezout cofactor
(_xgcd) and resultant is read off _euclid's remainders, over a ring.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache
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
        """v after its floor, which orders most pairs by one int comparison."""
        return (v.numerator // v.denominator, v)

    def format_element(self, v):
        return str(v)

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class Poly:
    """Dense univariate polynomial over an exact field, each coefficient
    coerced into it by field.coerce; zero has degree -1."""

    __slots__ = ("field", "degree", "lc", "coeffs", "_int_form", "_hash", "_key")

    def __init__(self, field, coeffs):
        cs = _ztrim(list(map(field.coerce, coeffs)))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "degree", len(cs) - 1)
        object.__setattr__(self, "coeffs", tuple(cs))
        if cs:
            object.__setattr__(self, "lc", cs[-1])

    @classmethod
    def _q(cls, form):
        """Over QQ from its integer form, (0, ()) for zero; coeffs and lc come later."""
        f = object.__new__(cls)
        object.__setattr__(f, "field", QQ)
        object.__setattr__(f, "degree", len(form[1]) - 1)
        object.__setattr__(f, "_int_form", form)
        return f

    def __getattr__(self, name):
        """The slots built on first read: over QQ, the integer form or coeffs
        and lc, whichever the polynomial was not built from; _hash, _key."""
        if name == "_int_form" and self.field is QQ:
            d = math.lcm(*(c.denominator for c in self.coeffs))
            value = _q_form([c.numerator * d // c.denominator for c in self.coeffs], d)
        elif name == "coeffs":
            c, ints = self._int_form
            value = tuple(Fraction(c.numerator * x, c.denominator) for x in ints)
        elif name == "lc":
            if self.degree < 0:
                raise ValueError("zero polynomial has no leading coefficient")
            value = self._int_form[0] * self._int_form[1][-1]
        elif name == "_hash":
            c, t = self._int_form if self.field is QQ else (None, self.coeffs)
            value = hash((id(self.field), t) if c is None else (c.numerator, c.denominator, t))
        elif name == "_key":
            value = (self.degree, tuple(map(self.field.element_key, self.coeffs)))
        else:
            raise AttributeError(name)
        object.__setattr__(self, name, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def from_ints(cls, field, ints):
        """From integers, lowest degree first, kept as the integer form over QQ."""
        ints = list(ints)
        if field is not QQ or not all(type(n) is int for n in ints):
            return cls(field, ints)
        return cls._q(_q_form(ints, 1))

    @classmethod
    @lru_cache(maxsize=4096)
    def monic_from_ints(cls, ints):
        """Monic over QQ from a primitive tuple, lc > 0: one object per tuple."""
        return cls._q((Fraction(1, ints[-1]), ints))

    @classmethod
    def constant(cls, field, c):
        c = field.coerce(c)
        return cls._q((c, (1,) if c else ())) if field is QQ else cls(field, [c])

    @classmethod
    def zero(cls, field):
        return cls.constant(field, field.zero)

    @classmethod
    def one(cls, field):
        return cls.constant(field, field.one)

    @property
    def is_zero(self):
        return self.degree < 0

    @property
    def is_monic(self):
        return self.degree >= 0 and self.lc == self.field.one

    @property
    def is_constant(self):
        return self.degree <= 0

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
        # a rational function answers +, - and * with a polynomial itself
        if isinstance(other, RationalFunction):
            return NotImplemented
        other = self._wrap(other)
        if self.field is QQ:
            k, a, b = cleared_ints(self, other)
            return Poly._q(_q_form(_zadd(a, b), k))
        return Poly(self.field, _zadd(self.coeffs, other.coeffs, self.field.zero))

    __radd__ = __add__

    def __neg__(self):
        return self * -1 if self.field is QQ else Poly(self.field, [-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return NotImplemented
        field = self.field
        if field is QQ:
            # primitive times primitive is primitive (Gauss's lemma, MCA 6.2)
            (c, b), (d, a) = (self._wrap(other)._int_form if isinstance(other, Poly)
                              else (field.coerce(other), (1,))), self._int_form
            if not (a and c):
                return Poly._q((field.zero, ()))
            return Poly._q((d * c, _int_tuple_product(a, b)))
        if not isinstance(other, Poly):
            c = field.coerce(other)
            return Poly(field, [a * c for a in self.coeffs])
        return Poly(field, _zmul(self.coeffs, self._wrap(other).coeffs, field.zero))

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(self, n, Poly.one(self.field))

    def __divmod__(self, other):
        other = self._wrap(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        field, R = self.field, self.field.list_ring
        if self.degree < other.degree:
            return Poly(field, ()), self
        q, r = R.divmod(list(map(R.lift, self.coeffs)), list(map(R.lift, other.coeffs)))
        return Poly(field, map(R.wrap, q)), Poly(field, map(R.wrap, r))

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other):
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("not an exact polynomial division")
        return q

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if self.field is QQ is other.field:
            (c, a), (d, b) = self._int_form, other._int_form
            return a == b and c == d
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return self._hash

    def monic(self):
        if self.is_zero:
            return self
        return self * (self.field.one / self.lc)

    def derivative(self):
        return Poly(self.field, _hasse(self.coeffs, 1))

    def int_form(self):
        """(content, ints) with self == content * ints, ints a primitive integer
        tuple with a positive leading entry; over QQ only."""
        if self.field is not QQ:
            raise TypeError("integer forms exist only over QQ")
        if self.is_zero:
            raise ValueError("the zero polynomial has no integer form")
        return self._int_form

    def evaluate(self, x):
        x = self.field.coerce(x) if not hasattr(x, "field") else x
        return _horner(self.coeffs, x, self.field.zero)

    def sort_key(self):
        return self._key

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


def _q_form(a, den):
    """The integer form of a / den for integers a and den > 0; (0, ()) for zero."""
    a = _ztrim(a)
    if not a:
        return QQ.zero, ()
    prim = _int_list_primitive(a)
    return Fraction(a[-1] // prim[-1], den), tuple(prim)


def cleared_ints(f, g):
    """(k, k*f, k*g) over QQ, multiples as integer lists, for the least k > 0
    making both integral: primitive forms leave the contents' denominators' lcm."""
    (c, a), (d, b) = f._int_form, g._int_form
    k = math.lcm(c.denominator, d.denominator)
    x, y = c.numerator * (k // c.denominator), d.numerator * (k // d.denominator)
    return k, [x * v for v in a], [y * v for v in b]


def _int_tuple_product(a, b):
    """a * b for integer tuples, a factor (1,) taking no product."""
    return b if a == (1,) else a if b == (1,) else tuple(_zmul(a, b))


def _int_list_primitive(a):
    """a divided by its content, with a positive last entry; [] for []."""
    g = math.gcd(*a) if a and a[-1] > 0 else -math.gcd(*a)
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
        for j, y in enumerate(b, i - db):
            r[j] -= c * y
    return k, _ztrim(q), _ztrim(r[:db])


def _int_list_root_quo(a, num, den):
    """a / (den t - num), a vanishing at num/den: q[i-1] = (a[i] + num q[i]) / den."""
    q = [0] * len(a)
    for i in range(len(a) - 1, 0, -1):
        q[i - 1] = (a[i] + num * q[i]) // den
    return q[:-1]


def _int_list_strip(a, b):
    """(w, g, k, r) for a nonzero integer list a and a primitive b with
    lc(b) > 0: a = b^w g, b not dividing g, and lc(b)^k g = r != 0
    modulo b.  Each exact quotient is integral (Gauss's lemma, MCA 6.2),
    so pseudo-division finds it without scaling a step; a linear one,
    den t - num, takes r = [den^m g(num/den)], m = deg g, by Horner's rule."""
    w = 0
    if len(b) == 2:
        num, den = -b[0], b[1]
        h = _int_list_at(a, num, den)
        while h == 0:
            w, a = w + 1, _int_list_root_quo(a, num, den)
            h = _int_list_at(a, num, den)
        return w, a, len(a) - 1, [h]
    k, q, r = _int_list_pseudo_divmod(a, b)
    while not r:
        w, a = w + 1, q
        k, q, r = _int_list_pseudo_divmod(a, b)
    return w, a, k, r


def _ztrim(a):
    """The list a without its trailing zeros (false entries), in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _ztrunc(a, m):
    """Symmetric representatives modulo m."""
    half = m // 2
    return _ztrim([r - m if r > half else r for r in (c % m for c in a)])


def _zadd(a, b, zero=0):
    return _ztrim([x + y for x, y in zip_longest(a, b, fillvalue=zero)])


def _zsub(a, b, zero=0):
    return _ztrim([x - y for x, y in zip_longest(a, b, fillvalue=zero)])


def _zmul(a, b, zero=0):
    """The schoolbook product; zero fills every entry, so a list of field
    elements passes the field's zero and gets field elements back."""
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b, i):
            out[j] += x * y
    return _ztrim(out)


def _zdivmod(a, b, m=None, field=None):
    """(q, r) with a = q b + r and deg r < deg b: in (Z/m)[t] for integer
    lists, q and r reduced into [0, m) and the remainder reduced only at the
    end, or in field[t] for lists of its elements.  lc(b) must be a unit."""
    zero, inv = (0, pow(b[-1], -1, m)) if m else (field.zero, field.one / b[-1])
    rem, db = list(a), len(b) - 1
    quo = [zero] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i] % m if m else rem[i]
        if not c:
            continue
        c = c * inv % m if m else c * inv
        quo[i - db] = c
        for j, y in enumerate(b, i - db):
            rem[j] -= c * y
    return _ztrim(quo), _ztrim([c % m for c in rem[:db]] if m else rem[:db])


def _hasse(f, k):
    """The k-th Hasse derivative sum binom(i, k) f_i t^(i-k), trimmed: the
    derivative for k = 1, over every coefficient ring."""
    return _ztrim([math.comb(i, k) * f[i] for i in range(k, len(f))])


# ---------------------------------------------------------------------------
# Polynomial rings over a field, for the algorithms written over a ring R


def _euclid(R, a, b):
    """Euclid in R (MCA ch. 3): the remainders [a, b, ...] down to the first
    of degree < 1, and the quotients, rs[i] = qs[i] rs[i+1] + rs[i+2]."""
    rs, qs = [a, b], []
    while R.deg(b) > 0:
        q, r = R.divmod(a, b)
        a, b = b, r
        rs.append(r)
        qs.append(q)
    return rs, qs


def _gcd(R, a, b):
    """Monic gcd in R: the last remainder if constant, else the one before."""
    rs = _euclid(R, a, b)[0]
    return R.monic(rs[-1] if R.deg(rs[-1]) == 0 else rs[-2])


def _xgcd(R, a, b):
    """(g, s, t) with s*a + t*b = g, the monic gcd in R, the cofactors folded
    up to the last nonzero remainder; (0, 1, 0) for a = b = 0."""
    rs, qs = _euclid(R, a, b)
    if R.deg(rs[-1]) < 0:
        rs, qs = rs[:-1], qs[:-1]
    s, t = [R.one, R.zero], [R.zero, R.one]  # the cofactors of rs[0], rs[1], ...
    for q in qs:
        s.append(R.sub(s[-2], R.mul(q, s[-1])))
        t.append(R.sub(t[-2], R.mul(q, t[-1])))
    n = len(rs) - 1
    u = R.inv_lc(rs[n]) if R.deg(rs[n]) >= 0 else R.one
    return R.mul(rs[n], u), R.mul(s[n], u), R.mul(t[n], u)


class _ListRing:
    """K[t] on coefficient lists, lowest degree first, through the kernel:
    with m = p, F_p[t] on integers, entries in [0, p), the methods taking
    symmetric representatives too, as Hensel lifting passes them; with
    only field = K, K[t] on lists of K's elements, K any field.  czero is
    the coefficients' zero, 0 or K's.  Built with a field, lift takes one
    of its elements to a coefficient and wrap takes a coefficient back:
    .rep and element_at on integers, K.coerce both ways on elements."""

    gcd, xgcd = _gcd, _xgcd

    def __init__(self, m=None, field=None):
        self.m, self.field = m, field
        self.czero, c1 = (0, 1) if m else (field.zero, field.one)
        self.char = m or field.char
        self.q = m or (field.order if field.finite else None)
        self.zero, self.one, self.gen = (), (c1,), (self.czero, c1)
        if field is not None:
            rep = operator.attrgetter("rep")
            self.lift, self.wrap = (rep, field.element_at) if m else (field.coerce, field.coerce)

    def deg(self, a):
        return len(a) - 1

    def reduce(self, a):
        """Representatives in [0, p) with m = p; a itself over a field."""
        return _ztrim([c % self.m for c in a]) if self.m else a

    def sub(self, a, b):
        return self.reduce(_zsub(a, b, self.czero))

    def mul(self, a, b):
        return self.reduce(_zmul(a, b, self.czero))

    def divmod(self, a, b):
        return _zdivmod(a, b, self.m, self.field)

    def rem(self, a, b):
        return self.divmod(a, b)[1]

    def quo(self, a, b):
        return self.divmod(a, b)[0]

    def inv_lc(self, a):
        """1/lc(a) as a constant of the ring."""
        return [pow(a[-1], -1, self.m) if self.m else self.field.one / a[-1]]

    def monic(self, a):
        inv = self.inv_lc(a)[0] if a else None
        return self.reduce([c * inv for c in a])

    def derivative(self, a):
        return self.reduce(_hasse(a, 1))

    def pth_root(self, a):
        """g with a = g(t^p), by inverse Frobenius on the coefficients."""
        return [c ** (self.q // self.char) for c in a[:: self.char]]

    def random(self, n, rng):
        """n coefficients, the randrange(q)-th elements of F_q."""
        cs = [rng.randrange(self.q) for _ in range(n)]
        return _ztrim(cs if self.m else list(map(self.field.element_at, cs)))

    def sort_key(self, g):
        """Poly.sort_key's order: degree, then the coefficients' keys."""
        return (len(g), g if self.m else tuple(map(self.field.element_key, g)))


class _PrimitiveRing:
    """Q[t] up to units, on primitive integer lists with a positive last
    entry ([] for zero), for Euclid and the squarefree loop over Q: divmod
    is the pseudo-quotient, which gcd never reads, and the primitive part of
    the pseudo-remainder (Knuth 4.6.1); by Gauss's lemma (MCA 6.2) the gcd
    and each exact quotient of primitive polynomials are primitive."""

    char = 0
    gcd = _gcd
    monic = staticmethod(_int_list_primitive)

    def deg(self, a):
        return len(a) - 1

    def divmod(self, a, b):
        _, q, r = _int_list_pseudo_divmod(a, b)
        return q, _int_list_primitive(r)

    def quo(self, a, b):
        return _int_list_primitive(_int_list_pseudo_divmod(a, b)[1])

    def derivative(self, a):
        return _hasse(a, 1)


_PRIMITIVE_RING = _PrimitiveRing()
QQ.list_ring = _ListRing(field=QQ)
_QQ_ONE = Poly.one(QQ)


def _cancel(a, b):
    """(a/g, b/g), g = gcd(a, b) of primitive integer tuples: no gcd with a
    constant side, and with a linear one, den t - num, one evaluation at num/den."""
    if len(b) == 2 < len(a):
        return _cancel(b, a)[::-1]
    if len(a) == 2 and len(b) > 1 and not _int_list_at(b, -a[0], a[1]):
        return (1,), tuple(_int_list_root_quo(b, -a[0], a[1]))
    if len(a) > 2 and len(b) > 2 and len(g := _gcd(_PRIMITIVE_RING, a, b)) > 1:
        return tuple(_PRIMITIVE_RING.quo(a, g)), tuple(_PRIMITIVE_RING.quo(b, g))
    return a, b


def _henrici(n1, d1, n2, d2):
    """(num, den), den monic, in lowest terms for n1 n2 / (d1 d2) over QQ with
    n1/d1, n2/d2 coprime (num/1 and 1/den are): by crosswise cancellation
    (Henrici; Knuth 4.5.1) only gcd(n1, d2) and gcd(n2, d1) cancel, and the
    cofactor products stay coprime; the content is one Fraction, zero 0/1."""
    (c1, a1), (e1, b1) = n1._int_form, d1._int_form
    (c2, a2), (e2, b2) = n2._int_form, d2._int_form
    (a1, b2), (a2, b1) = _cancel(a1, b2), _cancel(a2, b1)
    b = _int_tuple_product(b1, b2) if a1 and a2 else (1,)
    n = c1.numerator * c2.numerator * e1.denominator * e2.denominator
    m = c1.denominator * c2.denominator * e1.numerator * e2.numerator * b[-1]
    return Poly._q((Fraction(n, m), _int_tuple_product(a1, a2))), Poly.monic_from_ints(b)


def poly_gcd(f, g):
    """Monic gcd; poly_gcd(0, 0) is 0.  Over QQ, on the integer forms in
    _PrimitiveRing, with no Fraction built; else in the field's list ring."""
    if f.field is QQ:
        d = _gcd(_PRIMITIVE_RING, f._int_form[1], g._int_form[1])
        return Poly.monic_from_ints(tuple(d)) if d else f
    R = f.field.list_ring
    d = _gcd(R, list(map(R.lift, f.coeffs)), list(map(R.lift, g.coeffs)))
    return Poly(f.field, map(R.wrap, d))


def resultant(f, g):
    """Res(f, g) over f's field, f nonzero (_resultant in its list ring)."""
    if f.is_zero:
        raise ValueError("resultant: first argument must be nonzero")
    R = f.field.list_ring
    return R.wrap(_resultant(R, list(map(R.lift, f.coeffs)), list(map(R.lift, g.coeffs))))


def _resultant(R, a, b):
    """Res(a, b) = lc(a)^deg(b) * product of b over the roots of a, for lists
    in R, a nonzero, reduced mod m in _ListRing(m): a fold of the remainders,
    Res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r) Res(b, r) for r = a
    mod b, down to Res(a, c) = c^deg(a), so Res(a, 0) = 0 once deg(a) >= 1.
    If deg a < deg b, Euclid starts from (b, a): a mod b = a is not divided."""
    rs = [a, *_euclid(R, b, a)[0]] if len(a) < len(b) else _euclid(R, a, b)[0]
    acc = (rs[-1][0] if rs[-1] else R.czero) ** (len(rs[-2]) - 1)
    for x, y, r in zip(rs, rs[1:], rs[2:]):
        acc = acc * y[-1] ** (len(x) - len(r))
        if (len(x) - 1) * (len(y) - 1) % 2:
            acc = -acc
    return acc % R.m if R.m else acc


def lagrange_interpolate(field, points):
    """The unique polynomial of degree < len(points) through the points, by
    Newton's divided differences, the Newton form expanded by Horner's rule:
    O(n^2) field operations for n points."""
    xs = [field.coerce(x) for x, _ in points]
    cs = [field.coerce(y) for _, y in points]
    for k in range(1, len(xs)):
        for i in range(len(xs) - 1, k - 1, -1):
            cs[i] = (cs[i] - cs[i - 1]) / (xs[i] - xs[i - k])
    acc = []
    for x, c in zip(reversed(xs), reversed(cs)):
        # acc <- acc * (t - x) + c
        acc = [u - x * v for u, v in zip([c] + acc, acc + [field.zero])]
    return Poly(field, acc)


class RationalFunction:
    """Quotient of polynomials in canonical form (coprime, monic denominator)."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is not None:
            if num.field is not den.field:
                raise TypeError("numerator and denominator over different fields")
            if den.is_zero:
                raise ZeroDivisionError("rational function with zero denominator")
            if num.is_zero:
                den = None
            elif num.field is QQ:  # one gcd, on the integer forms
                num, den = _henrici(num, _QQ_ONE, _QQ_ONE, den)
            else:
                if not (num.is_constant or den.is_constant):
                    g = poly_gcd(num, den)
                    if g.degree >= 1:
                        num, den = num.exact_div(g), den.exact_div(g)
                inv = num.field.one / den.lc
                if inv != num.field.one:
                    num, den = num * inv, den * inv
        if den is None:  # a polynomial keeps num: no gcd, no Fraction operation
            den = _QQ_ONE if num.field is QQ else Poly.one(num.field)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @staticmethod
    def _pair(num, den):
        """num/den from a pair already coprime with den monic."""
        out = object.__new__(RationalFunction)
        object.__setattr__(out, "num", num)
        object.__setattr__(out, "den", den)
        return out

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
        return RationalFunction._pair(-self.num, self.den)

    def __sub__(self, other):
        return self + (-self.coerce(self.field, other))

    def __rsub__(self, other):
        return self.coerce(self.field, other) - self

    def __mul__(self, other):
        other = self.coerce(self.field, other)
        if self.field is QQ:
            return RationalFunction._pair(*_henrici(self.num, self.den, other.num, other.den))
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self.coerce(self.field, other)
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        if self.field is QQ:
            return RationalFunction._pair(*_henrici(self.num, self.den, other.den, other.num))
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return self.coerce(self.field, other) / self

    def inverse(self):
        """den/num: already coprime, so only the denominator is made monic."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero")
        inv = self.field.one / self.num.lc
        return RationalFunction._pair(self.den * inv, self.num * inv)

    def __pow__(self, n):
        """Powers of a coprime pair are coprime, and of a monic den monic."""
        r = self.inverse() if n < 0 else self
        return RationalFunction._pair(r.num ** abs(n), r.den ** abs(n))

    def __eq__(self, other):
        # unequal: a function over another field, a constant in neither this field nor its base
        home = getattr(other, "field", QQ if isinstance(other, Fraction) else None)
        if home not in (None, self.field) and (isinstance(other, (RationalFunction, Poly))
                                             or home is not getattr(self.field, "base", None)):
            return False
        if isinstance(other, (RationalFunction, Poly, int)) or home is not None:
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


def poly_str(f):
    """Render with descending powers, explicit '*', and '^' for powers."""
    return terms_str(map(f.field.format_element, f.coeffs))


def terms_str(texts):
    """poly_str from the coefficients' texts, lowest degree first, in one
    pass; a coefficient that prints as "0" is zero in every field here."""
    texts = list(texts)
    out = ""
    for i in range(len(texts) - 1, -1, -1):
        s, negative = texts[i], False
        if s == "0":
            continue
        if "/" in s or "+" in s[1:] or "-" in s[1:]:
            s = f"({s})"
        elif s[:1] == "-":
            s, negative = s[1:], True
        if i:
            tpow = "t" if i == 1 else f"t^{i}"
            s = tpow if s == "1" else f"{s}*{tpow}"
        if out:
            out += f" - {s}" if negative else f" + {s}"
        else:
            out = f"-{s}" if negative else s
    return out or "0"


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
