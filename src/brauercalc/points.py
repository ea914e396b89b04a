"""Base fields and closed points of the projective line over them.

A closed point of P^1 over k is either the distinguished point at
infinity (uniformizer 1/t) or a monic irreducible polynomial in k[t].
Only monic irreducibles are admitted; the constructor normalizes the
leading coefficient and checks irreducibility, so a ClosedPoint can be
trusted downstream.  Every local expansion is one strip and one
combine, at every point and over every base: _strip takes each side's
power of the uniformizer off once (integer forms over Q, one division
loop over poly's rings for every finite base, degrees at infinity), and
_combine builds one integer fraction, one top and one bottom in
kappa(x).  unit_part_at is the exponents (1, -1) case, read by
valuation_at, reduce_at and brauer.specialize; tame_symbol_at is the
four-side case.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ScopeError
from .factoring import is_irreducible
from .fields import GF, FFElem, PrimeField, QuotientField, is_prime
from .poly import Poly, QQ, RationalFunction, poly_str
from .poly import _IntListRing, _PolyRing, _int_list_strip


# Largest torsion over F_q; a p-th power exponent walks p roots of unity.
MAX_TORSION = 1000


@dataclass(frozen=True)
class RationalBase:
    """The rationals as the base of Q(t)."""

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
    P = L pi, and L^k G = r modulo P, so n/m = content L^(w-k); over a
    finite field one loop divides in a ring of poly, _IntListRing on the
    integer representatives over F_p, _PolyRing over an extension field;
    at infinity w = -deg f and g maps to lc(f).  A constant integer or
    rational r folds into n/m."""
    F, pi, kappa = point.base.field, point.poly, residue_field(point)

    def side(w, n, m, r):
        c = r[0]
        if len(r) == 1 and not isinstance(c, FFElem):
            return w, n * c.numerator, m * c.denominator, None
        if kappa is F:
            return w, n, m, c
        pad = (F.zero,) * (kappa.degree - len(r))
        return w, n, m, FFElem(kappa, tuple(map(F.coerce, r)) + pad)

    if pi is None:
        return [side(-f.degree, 1, 1, [f.lc]) for f in polys]
    if F is QQ:
        P, out = pi.int_form()[1], []
        for f in polys:
            content, ints = f.int_form()
            w, _, k, r = _int_list_strip(ints, P)
            n, m, L = content.numerator, content.denominator, P[-1] ** abs(w - k)
            out.append(side(w, n * L, m, r) if w > k else side(w, n, m * L, r))
        return out
    prime = isinstance(F, PrimeField)
    R = _IntListRing(F.p) if prime else _PolyRing(F)
    P, out = [c.rep for c in pi.coeffs] if prime else pi, []
    for f in polys:
        if f.field is not F:
            raise TypeError("polynomials over different fields")
        if f.is_zero:
            raise ValueError("the zero polynomial has no finite valuation")
        w, (q, r) = 0, R.divmod([c.rep for c in f.coeffs] if prime else f, P)
        while R.deg(r) < 0:
            w, (q, r) = w + 1, R.divmod(q, P)
        out.append(side(w, 1, 1, r if prime else r.coeffs))
    return out


def _combine(point, sides, exps, sign):
    """sign * prod ((n/m) u)^e over _strip's sides and the exponents e, in
    kappa(x): one integer fraction, one top and one bottom in kappa(x),
    and at most one division in kappa(x); the scalar alone, embedded,
    when both ends are 1."""
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
    if top is not None:
        s = top * s if point.degree == 1 else FFElem(top.field, tuple(s * c for c in top.rep))
    elif point.degree > 1:
        s = residue_field(point).embed(s)
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
