"""Base fields and closed points of the projective line over them.

A closed point of P^1 over k is either the distinguished point at
infinity (uniformizer 1/t) or a monic irreducible polynomial in k[t].
Only monic irreducibles are admitted; the constructor normalizes the
leading coefficient and checks irreducibility, so a ClosedPoint can be
trusted downstream.  unit_part_at is the one local expansion of a
function at a point; valuation_at and reduce_at read theirs off it, and
so does brauer.specialize, whose values are unit parts at symbol-regular
points; tame_symbol_at gives a pair's tame symbol from the same strip.
Both work on integer coefficient lists at every finite point over Q and
over a prime field; poly_strip serves only extension fields (F_4, F_9).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import ScopeError
from .factoring import _IntListRing, is_irreducible
from .fields import GF, FFElem, PrimeField, QuotientField, is_prime
from .poly import Poly, QQ, RationalFunction, _power, poly_str, poly_strip
from .poly import _int_list_pseudo_divmod, _int_list_strip, _zdivmod_mod, _zmul


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
    image of the unit in kappa(x).

    At infinity v = deg(den) - deg(num) and u = lc(num) / lc(den); over
    Q and F_p the integer forms or representatives are stripped of pi; at
    any other finite point pi is divided out of the numerator and the
    denominator, and u is the quotient of the reduced cofactors.  At a
    point where h has neither zero nor pole, u is the value of h there.
    """
    if isinstance(h, Poly):
        h = RationalFunction(h)
    if h.is_zero:
        raise ValueError("the zero function has no finite valuation")
    num, den, pi = h.num, h.den, point.poly
    if pi is None:
        return den.degree - num.degree, num.lc / den.lc
    if pi.field is QQ:
        sides = _q_sides((num, den), pi)
        return sides[0][1] - sides[1][1], _q_value(point, sides, (1, -1), 1)
    if isinstance(pi.field, PrimeField):
        return _unit_value_prime(num, den, point)
    vn, rn = poly_strip(num, pi)
    vd, rd = poly_strip(den, pi)
    if pi.degree == 1:
        return vn - vd, rn.coeff(0) / rd.coeff(0)
    kappa = residue_field(point)
    return vn - vd, kappa.from_poly(rn) / kappa.from_poly(rd)


def tame_symbol_at(a, b, point):
    """(-1)^(va vb) ua^vb / ub^va for the unit parts (va, ua), (vb, ub)
    of a and b at the point, or None when va = vb = 0; over Q built once
    from the four stripped sides, with no unit part in between."""
    if point.poly is not None and point.poly.field is QQ:
        sides = _q_sides((a.num, a.den, b.num, b.den), point.poly)
        va, vb = sides[0][1] - sides[1][1], sides[2][1] - sides[3][1]
        if not (va or vb):
            return None
        return _q_value(point, sides, (vb, -vb, -va, va), -1 if (va * vb) % 2 else 1)
    (va, ua), (vb, ub) = unit_part_at(a, point), unit_part_at(b, point)
    if not (va or vb):
        return None
    val = ua**vb / ub**va
    return -val if (va * vb) % 2 else val


def _q_sides(polys, pi):
    """(content, w, r, k) for each f = content * F over Q, with P = L * pi
    primitive in Z[t]: F = P^w G, P not dividing G, and L^k G = r mod P."""
    P, out = pi.int_form()[1], []
    for f in polys:
        content, ints = f.int_form()
        w, _, k, r = _int_list_strip(ints, P)
        out.append((content, w, r, k))
    return out


def _q_value(point, sides, exps, sign):
    """sign * prod (content * L^(w - k) * r)^e in kappa(x) over _q_sides
    and exponents e, as one integer fraction times top / bottom mod P."""
    P = point.poly.int_form()[1]
    L, d = P[-1], len(P) - 1

    def mul(f, g):  # (r, k) stands for r / L^k modulo P
        j, _, r = _int_list_pseudo_divmod(_zmul(f[0], g[0]), P)
        return r, f[1] + g[1] + j

    num, den, e_L, ends = sign, 1, 0, [None, None]  # ends: top, bottom
    for (content, w, r, k), e in zip(sides, exps):
        if e:
            x, y = content.numerator * (r[0] if d == 1 else 1), content.denominator
            x, y = (x, y) if e > 0 else (y, x)
            num, den, e_L = num * x ** abs(e), den * y ** abs(e), e_L + (w - k) * e
            if d > 1:
                part, end = _power((r, 0), abs(e), None, mul), ends[e < 0]
                ends[e < 0] = part if end is None else mul(end, part)
    (top, kt), (bottom, kb) = (end or ([1], 0) for end in ends)
    e_L += kb - kt
    num, den = num * L ** max(e_L, 0), den * L ** max(-e_L, 0)
    if d == 1:
        return Fraction(num, den)
    kappa = residue_field(point)

    def elem(ints, n, m):
        return FFElem(kappa, tuple(Fraction(n * c, m) for c in ints + [0] * (d - len(ints))))

    if len(bottom) == 1:
        return elem(top, num, den * bottom[0])
    return elem(top, num, den) / elem(bottom, 1, 1)


def _unit_value_prime(num, den, point):
    """unit_part_at at a finite point over F_p: pi is stripped from the
    representatives of num and den, and the remainders' quotient is taken
    modulo pi on integer lists."""
    field, p = point.base.field, point.base.field.p
    if num.field is not field:
        raise TypeError("polynomials over different fields")
    pi = [c.rep for c in point.poly.coeffs]
    v, rems = 0, []
    for sign, f in ((1, num), (-1, den)):
        quo, rem = _zdivmod_mod([c.rep for c in f.coeffs], pi, p)
        while not rem:
            v += sign
            quo, rem = _zdivmod_mod(quo, pi, p)
        rems.append(rem)
    rn, rd = rems
    if point.degree == 1:
        return v, FFElem(field, rn[0] * pow(rd[0], -1, p) % p)
    R = _IntListRing(p)
    u = R.rem(R.mul(rn, R.xgcd(rd, pi)[1]), pi)
    u += [0] * (point.degree - len(u))
    return v, FFElem(residue_field(point), tuple(FFElem(field, c) for c in u))


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
