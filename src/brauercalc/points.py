"""Base fields and closed points of the projective line over them.

A closed point of P^1 over k is either the distinguished point at
infinity (uniformizer 1/t) or a monic irreducible polynomial in k[t].
Only monic irreducibles are admitted; the constructor normalizes the
leading coefficient and checks irreducibility, so a ClosedPoint can be
trusted downstream.  unit_part_at is the one local expansion of a
function at a point; valuation_at and reduce_at read theirs off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ScopeError
from .factoring import is_irreducible
from .fields import GF, QuotientField, is_prime
from .poly import Poly, QQ, RationalFunction, poly_str, poly_strip
from .poly import _int_list_at, _int_list_div_linear


class RationalBase:
    """The rationals as the base of Q(t)."""

    is_finite = False
    char = 0

    @property
    def field(self):
        return QQ

    def check_torsion(self, p):
        if p != 2:
            raise ScopeError(
                "over Q only 2-torsion classes are supported (requested p="
                f"{p})"
            )

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalBase)

    def __hash__(self):
        return hash("RationalBase")


@dataclass(frozen=True)
class FiniteBase:
    """F_q as the base of F_q(t); q may be any prime power."""

    q: int

    is_finite = True

    @property
    def field(self):
        return GF(self.q)

    @property
    def char(self):
        return self.field.char

    def check_torsion(self, p):
        if not is_prime(p):
            raise ScopeError(f"torsion must be prime (requested p={p})")
        if (self.q - 1) % p != 0:
            raise ScopeError(
                f"p-torsion symbols over F_q need p | q-1 (p={p}, q={self.q})"
            )

    def __repr__(self):
        return f"F{self.q}"


Q_BASE = RationalBase()


@dataclass(frozen=True)
class ClosedPoint:
    """A closed point of P^1: a monic irreducible polynomial, or infinity."""

    base: object
    poly: object  # Poly (monic irreducible) or None for infinity

    @classmethod
    def infinity(cls, base):
        return cls(base, None)

    @classmethod
    def finite(cls, base, poly):
        if poly.field is not base.field:
            raise TypeError("point polynomial over the wrong base field")
        if poly.degree < 1:
            raise ValueError("a finite closed point needs a nonconstant polynomial")
        poly = poly.monic()
        if not is_irreducible(poly):
            raise ValueError(f"{poly_str(poly)} is not irreducible over {base!r}")
        return cls(base, poly)

    @classmethod
    def rational(cls, base, value):
        """The point t = value."""
        field = base.field
        v = field.coerce(value)
        return cls(base, Poly(field, [-v, field.one]))

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
    image of the unit in kappa(x).

    At infinity v = deg(den) - deg(num) and u = lc(num) / lc(den); at a
    rational point over Q the integer forms are stripped of b*t - a; at
    any other finite point pi is divided out of the numerator and the
    denominator, and u is the quotient of the reduced cofactors.
    """
    if isinstance(h, Poly):
        h = RationalFunction(h)
    if h.is_zero:
        raise ValueError("the zero function has no finite valuation")
    num, den = h.num, h.den
    if point.is_infinity:
        return den.degree - num.degree, num.lc / den.lc
    if point.degree == 1 and point.base.field is QQ:
        vn, pn, qn = _unit_value_rational(num, point)
        vd, pd, qd = _unit_value_rational(den, point)
        return vn - vd, Fraction(pn * qd, qn * pd)
    vn, rn = poly_strip(num, point.poly)
    vd, rd = poly_strip(den, point.poly)
    if point.degree == 1:
        return vn - vd, rn.coeff(0) / rd.coeff(0)
    kappa = residue_field(point)
    return vn - vd, kappa.from_poly(rn) / kappa.from_poly(rd)


def _unit_value_rational(f, point):
    """(v, p, q) with f = (t - c)^v * w and w(c) = p/q at a rational point over Q."""
    c = point.poly.coeff(0)  # point.poly is t - a/b
    a, b = -c.numerator, c.denominator
    content, ints = f.int_form()
    v, h = 0, _int_list_at(ints, a, b)
    while h == 0:
        ints = _int_list_div_linear(ints, a, b)
        v, h = v + 1, _int_list_at(ints, a, b)
    # f = content * (b t - a)^v * g with b^m g(a/b) = h for m = deg g
    return v, content.numerator * h * b**v, content.denominator * b ** (len(ints) - 1)


def sweep_values(base):
    """0, 1, -1, 2, -2, ... over Q; all field elements over F_q."""
    if base.is_finite:
        yield from base.field.elements()
        return
    yield 0
    k = 1
    while True:
        yield k
        yield -k
        k += 1


def sorted_points(points):
    return sorted(points, key=lambda x: x.sort_key())
