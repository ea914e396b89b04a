"""Residue classes at closed points and p-th power tests in residue fields.

The residue of a symbol algebra at a point is a unit of the residue
field, remembered modulo p-th powers.  Deciding triviality therefore
needs a p-th power test in three kinds of field: Q itself, finite
fields, and number fields Q[t]/(pi) (p = 2 only).  Over F_q (p | q - 1)
the norm induces kappa(x)*/p = F_q*/p, so every decision reads N(u) in
F_q: triviality is Euler's criterion on it, and the class of u is its
normed exponent (corestriction_exponent).  The one power taken in
kappa(x) is generator_power's g^m of normed exponent k, which
canonical_value prints and distinguish realizes.  Over Q(t) almost every
number field met is quadratic, and there the square root has a
closed form in rational square roots (_quadratic_sqrt).  Higher
degrees go through the norm polynomial

    N_lam(X) = Res_t(pi(t), (X - lam*t)^2 - e(t)),

which for squarefree N_lam is reducible over Q exactly when e is a
square in the quotient.  A shift parameter lam is swept until the norm
polynomial is squarefree.  The root is read off each irreducible factor h
of N_lam in kappa[y]/(y^2 - e), by one Horner pass h(lam*t + y) = a + b*y
on pairs of kappa elements: for the factor with root lam*t + s, s^2 = e,
it gives s = -a/b.  nf_sqrt squares every root back before returning it,
and nf_is_square says yes only when it holds such a root.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

from .errors import Record, ScopeError
from .factoring import factor_over_Q, squarefree_kernel
from .fields import (
    FFElem,
    is_pth_power_finite,
    multiplicative_generator,
    pth_power_exponent,
    rational_is_square,
    rational_sqrt,
)
from .poly import Poly, QQ, lagrange_interpolate, poly_gcd, resultant
from .points import Q_BASE, residue_field, sweep_values


def is_pth_power(field, value, p):
    """Whether value lies in (field*)^p.  field is QQ, finite, or Q[t]/(pi)."""
    if field is QQ:
        if p != 2:
            raise ScopeError(f"p-th power test over Q only for p = 2 (got {p})")
        return rational_is_square(value)
    if field.finite:
        return is_pth_power_finite(field.coerce(value), p)
    if p != 2:
        raise ScopeError(
            f"p-th power test over a number field only for p = 2 (got {p})"
        )
    return nf_is_square(field, value)


# ---------------------------------------------------------------------------
# square testing in number fields

def _nf_norm_poly(kappa, e, lam):
    """Res_t(modulus, (X - lam*t)^2 - e(t)) as a polynomial in X over Q.

    Computed by evaluating at the first 2d + 1 values of the sweep and
    interpolating; the result is monic of degree 2d.
    """
    pi, ep = kappa.modulus, kappa.to_poly(e)
    points = []
    for x in islice(sweep_values(Q_BASE), 2 * kappa.degree + 1):
        lin = Poly(QQ, [x, -lam])
        points.append((x, resultant(pi, lin * lin - ep)))
    return lagrange_interpolate(QQ, points)


# Shifts the sweep in _split_norm tries.  The 2d roots of N_lam are
# lam*theta_i +- sqrt(e(theta_i)) over the conjugates theta_i; two with
# i != j meet for at most one lam, and two with i == j never, so at most
# 2d(d - 1) shifts fail.  A field that needs more is out of scope.
_NORM_SHIFTS = 64


def _split_norm(kappa, e):
    """(lam, factors): the first shift in the sweep whose norm polynomial
    is squarefree, and that polynomial's monic irreducible factors over Q."""
    for lam in islice(sweep_values(Q_BASE), _NORM_SHIFTS):
        norm_poly = _nf_norm_poly(kappa, e, lam)
        if poly_gcd(norm_poly, norm_poly.derivative()).degree == 0:
            return lam, factor_over_Q(norm_poly)
    raise ScopeError(
        f"no squarefree norm polynomial among the first {_NORM_SHIFTS} shifts"
    )


def _quadratic_sqrt(kappa, e):
    """A square root of a nonzero e in kappa = Q[t]/(t^2 + b t + c), or None.

    With D = b^2 - 4c, t = (sqrt(D) - b)/2 turns e = x0 + x1 t into
    X + Y sqrt(D) with X = x0 - x1 b/2 and Y = x1/2.  A root u + v sqrt(D)
    needs u^2 + D v^2 = X and 2uv = Y, so u^2 and D v^2 are the roots
    (X +- n)/2 of Z^2 - X Z + D Y^2/4, where n^2 = X^2 - D Y^2 is the norm
    of e.  Either u^2 is a nonzero rational square and v = Y/(2u), or
    u = 0, Y = 0 and X/D = v^2.
    """
    c, b = kappa.modulus.coeffs[:2]
    x0, x1 = e.rep
    disc = b * b - 4 * c
    X = x0 - x1 * b / 2
    Y = x1 / 2
    n = rational_sqrt(X * X - disc * Y * Y)
    if n is None:
        return None
    for z in ((X + n) / 2, (X - n) / 2):
        u = rational_sqrt(z)
        if u:  # neither None nor 0
            v = Y / (2 * u)
            break
    else:
        v = rational_sqrt(X / disc) if Y == 0 else None
        if v is None:
            return None
        u = 0
    root = FFElem(kappa, (u + v * b, 2 * v))
    return root if root * root == e else None


def nf_is_square(kappa, e):
    """Whether e is a square in the number field kappa = Q[t]/(pi); a yes
    always comes from a root that squares back."""
    return nf_sqrt(kappa, e) is not None


def nf_sqrt(kappa, e):
    """A square root of e in kappa, or None.

    A non-None answer has been confirmed by squaring, so it is
    self-certifying.  Quadratic fields use the closed form of
    _quadratic_sqrt; higher degrees factor the norm polynomial N_lam and
    read the root off each factor h in kappa[y]/(y^2 - e): Horner's rule
    on pairs a + b*y gives h(lam*t + y) = a + b*y, and the candidate root
    is -a/b.  N_lam is squarefree, so the factor with root lam*t + s
    (s^2 = e) vanishes at y = s and not at y = -s, which makes b nonzero
    and s = -a/b; every other candidate fails to square back.
    """
    e = kappa.coerce(e)
    if not e:
        return kappa.zero
    if kappa.degree == 2:
        return _quadratic_sqrt(kappa, e)
    if not rational_is_square(kappa.norm(e)):
        return None
    lam, factors = _split_norm(kappa, e)
    if len(factors) == 1:
        return None
    shift = kappa.embed(lam) * kappa.gen_elem()
    for h, _ in factors:
        a = b = kappa.zero
        for c in reversed(h.coeffs):
            # (a + b*y)(shift + y) + c, with y^2 = e
            a, b = shift * a + e * b + kappa.embed(c), a + shift * b
        if b:
            root = -a / b
            if root * root == e:
                return root
    return None


# ---------------------------------------------------------------------------
# residue classes

# Most digits of the order q^(d p) a finite residue field's label writes.
MAX_LABEL_DIGITS = 1000

class ResidueClass(Record):
    """A unit of the residue field at a point, taken modulo p-th powers; value
    is a Fraction at rational points over Q, an FFElem otherwise."""

    __slots__ = ("point", "value", "p", "_trivial")

    def __post_init__(self):
        if not self.value:
            raise ValueError("a residue class must be a unit")

    @property
    def field(self):
        return residue_field(self.point)

    def is_trivial(self):
        # a memo; over F_q, Euler's criterion on the norm in F_q (no generator)
        if getattr(self, "_trivial", None) is None:
            field, value = self.field, self.value
            if self.point.base.is_finite:
                field, value = self.point.base.field, norm_to_base(self.point, value)
            object.__setattr__(self, "_trivial", is_pth_power(field, value, self.p))
        return self._trivial

    def canonical_value(self):
        """A canonical representative modulo p-th powers where one exists;
        over F_q, the generator_power of the value's normed exponent."""
        if isinstance(self.value, Fraction):
            return Fraction(squarefree_kernel(self.value))
        if not self.field.finite:
            return self.value
        x, p = self.point, self.p
        return generator_power(x, corestriction_exponent(x, self.value, p), p)

    def field_label(self):
        """Readable name of the extension the residue cuts out."""
        kappa = self.field
        if kappa is QQ:
            d = squarefree_kernel(self.value)
            return "Q" if d == 1 else f"Q(sqrt({d}))"
        if kappa.finite:
            e = 1 if self.is_trivial() else self.p
            if e * math.log10(kappa.order) >= MAX_LABEL_DIGITS:
                raise ScopeError(f"a field label of more than {MAX_LABEL_DIGITS} digits")
            return f"F{kappa.order ** e}"
        deg = self.point.degree
        if deg == 2:
            pi = self.point.poly
            disc = squarefree_kernel(pi.coeff(1) ** 2 - 4 * pi.coeff(0))
            name = f"Q(sqrt({disc}))"
        else:
            name = f"kappa[deg {deg}]"
        if self.is_trivial():
            return name
        return f"{name}(sqrt({kappa.format_element(self.value)}))"


def norm_to_base(point, value):
    """Norm of a residue value down to the constant field of the point."""
    if point.is_infinity or point.degree == 1:
        return value
    return residue_field(point).norm(value)


def corestriction_exponent(point, value, p):
    """The class of a unit of kappa(x) in kappa(x)*/p over a finite constant
    field, and its local contribution to the reciprocity sum: the exponent
    mod p of its norm against the fixed generator of F_q*.  The norm induces
    kappa(x)*/p = F_q*/p, so this is the one discrete log taken of a residue."""
    base = point.base
    if not base.is_finite:
        raise ScopeError("corestriction exponents need a finite constant field")
    return pth_power_exponent(base.field.coerce(norm_to_base(point, value)), p)


def generator_power(point, k, p):
    """The unit g^m with normed exponent m k(g) = k mod p, g the fixed generator
    of kappa(x)*; 1 at k = 0 with no search, m = k at degree 1 (zeta = g^((q-1)/p))."""
    if k % p == 0:
        return residue_field(point).one
    g = multiplicative_generator(residue_field(point))
    m = k if point.degree == 1 else k * pow(corestriction_exponent(point, g, p), -1, p)
    return g ** (m % p)
