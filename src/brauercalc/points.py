"""Base fields and closed points of the projective line over them.

A closed point of P^1 over k is either the distinguished point at
infinity (uniformizer 1/t) or a monic irreducible polynomial in k[t].
Only monic irreducibles are admitted; ClosedPoint.finite normalizes the
leading coefficient and checks irreducibility, so a ClosedPoint can be
trusted downstream; every point is the one _point of its base and
factor.  Every local expansion is one strip and one combine, at every
point and over every base: _strip takes each side's power of the
uniformizer off once (integer forms over Q, poly's one division,
_zdivmod, for every finite base, degrees at infinity), and _combine
builds one integer fraction, one top and one bottom in kappa(x).
unit_part_at is the exponents (1, -1) case, read by valuation_at,
reduce_at and brauer.specialize; tame_symbol_at is the four-side case.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import Record, ScopeError
from .factoring import factor_poly, is_irreducible
from .fields import GF, FFElem, PrimeField, QuotientField, is_prime
from .poly import Poly, QQ, RationalFunction, poly_str
from .poly import _int_list_strip, _zdivmod


# Largest torsion over F_q; a p-th power exponent walks p roots of unity.
MAX_TORSION = 1000


class RationalBase(Record):
    """The rationals as the base of Q(t)."""

    __slots__ = ()
    is_finite = False
    char = 0
    field = QQ

    def check_torsion(self, p):
        if p != 2:
            raise ScopeError(
                "over Q only 2-torsion classes are supported (requested p="
                f"{p})"
            )

    def __repr__(self):
        return "Q"


class FiniteBase(Record):
    """F_q as the base of F_q(t); q may be any prime power."""

    __slots__ = ("q",)
    is_finite = True

    @property
    def field(self):
        return GF(self.q)

    @property
    def char(self):
        return self.field.char

    def check_torsion(self, p):
        if p > MAX_TORSION:
            raise ScopeError(f"torsion must be at most {MAX_TORSION} (requested p={p})")
        if not is_prime(p):
            raise ScopeError(f"torsion must be prime (requested p={p})")
        if (self.q - 1) % p != 0:
            raise ScopeError(
                f"p-torsion symbols over F_q need p | q-1 (p={p}, q={self.q})"
            )

    def __repr__(self):
        return f"F{self.q}"


Q_BASE = RationalBase()


class ClosedPoint(Record):
    """A closed point of P^1: a monic irreducible polynomial, or infinity."""

    __slots__ = ("base", "poly", "_hash")  # poly: monic irreducible, or None for infinity

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.base, self.poly)))

    def __hash__(self):
        return self._hash

    @classmethod
    def infinity(cls, base):
        return _point(base, None)

    @classmethod
    def finite(cls, base, poly):
        if poly.field is not base.field:
            raise TypeError("point polynomial over the wrong base field")
        if poly.degree < 1:
            raise ValueError("a finite closed point needs a nonconstant polynomial")
        poly = poly.monic()
        if not is_irreducible(poly):
            raise ValueError(f"{poly_str(poly)} is not irreducible over {base!r}")
        return _point(base, poly)

    @classmethod
    def rational(cls, base, value):
        """The point t = value, shared with zero_points (over Q by integer form)."""
        field = base.field
        v = field.coerce(value)
        if field is QQ:
            return _point(base, Poly.monic_from_ints((-v.numerator, v.denominator)))
        return _point(base, Poly(field, [-v, field.one]))

    @property
    def is_infinity(self):
        return self.poly is None

    @property
    def degree(self):
        return 1 if self.poly is None else self.poly.degree

    def sort_key(self):
        if self.is_infinity:
            return (1,)
        return (0,) + self.poly.sort_key()

    def __str__(self):
        if self.is_infinity:
            return "inf"
        return poly_str(self.poly)

    def __repr__(self):
        return f"ClosedPoint({self})"


def zero_points(base, f):
    """The frozenset of shared points where f vanishes, one per factor of f."""
    return frozenset(_point(base, g) for g, _ in factor_poly(f))


@lru_cache(maxsize=4096)
def _point(base, poly):
    """One shared point per base and factor (monic irreducible, or None)."""
    return ClosedPoint(base, poly)


@lru_cache(maxsize=None)
def _kappa_cached(base, poly):
    return QuotientField(base.field, poly)


def residue_field(point):
    """The residue field kappa(x) as a field object.

    Degree-1 points and infinity give back the base field itself;
    higher-degree points give the quotient field by their polynomial.
    """
    if point.is_infinity or point.degree == 1:
        return point.base.field
    return _kappa_cached(point.base, point.poly)


def valuation_at(h, point):
    """Valuation of a nonzero rational function (or polynomial) at a point."""
    return unit_part_at(h, point)[0]


def reduce_at(h, point):
    """Image in kappa(x) of a nonzero rational function without a pole at x."""
    v, u = unit_part_at(h, point)
    if v < 0:
        raise ZeroDivisionError("function has a pole at the point")
    return residue_field(point).zero if v else u


def unit_part_at(h, point):
    """(v, u) with h = uniformizer^v * unit near the point, and u the
    image of the unit in kappa(x): the exponents (1, -1) case of
    _combine over the stripped numerator and denominator.  At a point
    where h has neither zero nor pole, u is the value of h there.
    """
    if isinstance(h, Poly):
        h = RationalFunction(h)
    if h.is_zero:
        raise ValueError("the zero function has no finite valuation")
    sides = _strip((h.num, h.den), point)
    return sides[0][0] - sides[1][0], _combine(point, sides, (1, -1), 1)


def tame_symbol_at(a, b, point):
    """(-1)^(va vb) ua^vb / ub^va for the unit parts (va, ua), (vb, ub)
    of a and b at the point, or None when va = vb = 0; combined once from
    the four stripped sides, with no unit part in between."""
    sides = _strip((a.num, a.den, b.num, b.den), point)
    va, vb = sides[0][0] - sides[1][0], sides[2][0] - sides[3][0]
    if not (va or vb):
        return None
    return _combine(point, sides, (vb, -vb, -va, va), -1 if (va * vb) % 2 else 1)


def _strip(polys, point):
    """(w, n, m, u) for each f: f = pi^w g near the point, and g maps to
    (n/m) u in kappa(x), with n, m integers and u a kappa element or None
    for 1.  Over Q, f = content P^w G for the primitive integer form
    P = L pi, and L^k G = r modulo P, so n/m = content L^(w-k), and r is
    one integer at a rational point; over a finite field poly._zdivmod
    divides the integer representatives modulo p over F_p, the coefficients
    over an extension field; at infinity w = -deg f and g maps to lc(f).
    A one-entry r over Q folds into n/m; _side reads r."""
    F, pi = point.base.field, point.poly
    if pi is None:
        return [_side(point, -f.degree, 1, 1, [f.lc]) for f in polys]
    if F is QQ:
        P, out = pi.int_form()[1], []
        for f in polys:
            content, ints = f.int_form()
            w, _, k, r = _int_list_strip(ints, P)
            n, m, L = content.numerator, content.denominator, P[-1] ** abs(w - k)
            n, m = (n * L, m) if w > k else (n, m * L)
            out.append((w, n * r[0], m, None) if len(r) == 1 else _side(point, w, n, m, r))
        return out
    m = F.p if isinstance(F, PrimeField) else None
    P, out = [c.rep for c in pi.coeffs] if m else pi.coeffs, []
    for f in polys:
        if f.field is not F:
            raise TypeError("polynomials over different fields")
        if f.is_zero:
            raise ValueError("the zero polynomial has no finite valuation")
        w, (q, r) = 0, _zdivmod([c.rep for c in f.coeffs] if m else f.coeffs, P, m, F)
        while not r:
            w, (q, r) = w + 1, _zdivmod(q, P, m, F)
        out.append(_side(point, w, 1, 1, r))
    return out


def _side(point, w, n, m, r):
    """_strip's (w, n, m, u) for the remainder r, a nonempty list of
    coefficients: a constant integer or rational folds into n/m, and
    anything else is u in kappa(x), which is asked for only here."""
    F, c = point.base.field, r[0]
    if len(r) == 1 and not isinstance(c, FFElem):
        return w, n * c.numerator, m * c.denominator, None
    kappa = residue_field(point)
    if kappa is F:
        return w, n, m, c
    return w, n, m, FFElem(kappa, kappa._rep(map(F.coerce, r) if F is QQ else r))


def _combine(point, sides, exps, sign):
    """sign * prod ((n/m) u)^e over _strip's sides and the exponents e, in
    kappa(x): one integer fraction, one top and one bottom in kappa(x),
    then the fraction, embedded, times the top over the bottom, so at most
    one division in kappa(x)."""
    num, den, ends = sign, 1, [None, None]  # ends: top, bottom
    for (_, n, m, u), e in zip(sides, exps):
        if e:
            x, y = (n, m) if e > 0 else (m, n)
            num, den = num * x ** abs(e), den * y ** abs(e)
            if u is not None:
                part, end = u ** abs(e), ends[e < 0]
                ends[e < 0] = part if end is None else end * part
    F, (top, bottom) = point.base.field, ends
    s = Fraction(num, den) if F is QQ else F.from_int(num * pow(den, -1, F.char))
    if point.degree > 1:
        s = residue_field(point).embed(s)
    if top is not None:
        s = s * top  # s first: the product skips its zero coordinates
    return s if bottom is None else s / bottom


def sweep_values(base):
    """0, 1, -1, 2, -2, ... as Fractions over Q; all field elements over F_q."""
    if base.is_finite:
        yield from base.field.elements()
        return
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction(k)
        yield Fraction(-k)
        k += 1


def sorted_points(points):
    return sorted(points, key=lambda x: x.sort_key())
