"""Explicit genus-zero Kummer covers.

Two constructions.  A splitting witness for a symbol (a, u*(t-c)) with
constant a and u is the cover s^p = -u*(t-c)/a: substituting the whole
second entry for the uniformizer makes the pullback literally
(a, -a*s^p), which is trivial, and keeps the cover rational with the
parametrization t = c - (a/u) s^p.  An unramifying cover for a class
with ramification divisor D is T^m = f*f(x)^(m-1) where f has simple
zeros on D and poles only at a chosen point b; its fiber at x has the
rational root f(x).

Verification recomputes everything it claims: residues of the pulled
back class, Eisenstein valuations, fiber roots.  Full splitting
verification is only available when the cover is rational and p = 2;
otherwise the report carries the valuation certificates alone and says
so.
"""

from __future__ import annotations

from .brauer import (
    FINITE_CONSTANTS_TRIVIAL,
    BrauerClass,
    classes_equal,
    compare_classes,
    ramification_divisor,
    residue_at,
)
from .errors import Record
from .points import ClosedPoint, sweep_values, valuation_at
from .poly import Poly, RationalFunction
from .residues import is_pth_power


class Reparametrization(Record):
    """t expressed exactly in a new coordinate s."""

    __slots__ = ("subst",)  # RationalFunction in s

    def __post_init__(self):
        if self.subst.is_constant:
            raise ValueError("substitution must be non-constant")


class KummerCoverDatum(Record):
    """Degree-m cover s^m = g of the line, pointed over t = basepoint_t.

    kind is "splitting" or "unramified", g a RationalFunction in t,
    basepoint_t a base-field value c and fiber_root a k-rational root of
    T^m - g(c).  The unramified kind has f, the function with simple zeros
    on D; the splitting kind has symbol, the witnessed pair (a, b), and
    with p = 2 reparam, t = c - (a/u) s^2; each is None otherwise."""

    __slots__ = ("kind", "base", "m", "g", "basepoint_t", "fiber_root", "f", "reparam", "symbol")

    def __post_init__(self):
        if self.g.is_zero:
            raise ValueError("cover equation with zero right-hand side")
        char = self.base.field.char
        if char and self.m % char == 0:
            raise ValueError("cover degree divisible by the characteristic")

    def _fiber_root_check(self):
        # g is in lowest terms, so it has a pole at t = c exactly where den(c) = 0
        c = self.basepoint_t
        return WitnessCheck(
            "fiber-root",
            bool(self.g.den.evaluate(c)) and self.fiber_root**self.m == self.g.evaluate(c),
            f"T = {self.fiber_root} solves the fiber equation",
        )


def pullback_class(cls, reparam):
    """The class with every symbol entry composed with the substitution."""
    pairs = [
        (s.a.substitute(reparam.subst), s.b.substitute(reparam.subst))
        for s in cls.symbols
    ]
    return BrauerClass.make(cls.base, cls.p, pairs)


def splitting_witness(base, p, a, b):
    """Witness datum for the symbol (a, b) with b = u*(t - c).

    The first entry must be a nonzero constant and the second a nonzero
    constant multiple of a linear polynomial.  At t = c the entries have
    valuations 0 and 1, so the residue there is a itself: the symbol
    ramifies at t = c exactly when a is not a p-th power, and the
    constant the cover divides by represents the ramification.
    """
    base.check_torsion(p)
    fa, fb = RationalFunction.coerce(base.field, a), RationalFunction.coerce(base.field, b)
    if fa.is_zero or fb.is_zero:
        raise ValueError("symbol entries must be nonzero")
    if not fa.is_constant:
        raise ValueError("first entry must be a constant")
    if not (fb.is_polynomial and fb.num.degree == 1):
        raise ValueError("second entry must be u*(t - c) with u a nonzero constant")
    aval = fa.constant_value()
    u = fb.num.lc
    c = -(fb.num.coeff(0) / u)
    if is_pth_power(base.field, aval, p):
        raise ValueError("symbol is unramified at the zero of its second entry")
    g = -fb / fa
    reparam = None
    if p == 2:
        field = base.field
        subst = RationalFunction(Poly(field, [c, field.zero, -(aval / u)]))
        reparam = Reparametrization(subst)
    return KummerCoverDatum(
        kind="splitting",
        base=base,
        m=p,
        g=g,
        basepoint_t=c,
        fiber_root=base.field.zero,
        reparam=reparam,
        symbol=(fa, fb),
    )


class WitnessCheck(Record):
    __slots__ = ("name", "passed", "detail")


class WitnessReport(Record):
    __slots__ = ("mode", "checks", "notes")  # mode: "full" or "certificates-only"

    @property
    def ok(self):
        return all(c.passed for c in self.checks)


def verify_splitting_witness(cls, witness):
    """Re-derive the witness claims against a class containing the symbol.

    Full mode (p = 2, rational cover): pulls the class back through the
    reparametrization and checks residues above the witnessed point; if
    the class is exactly the witnessed symbol, additionally checks that
    the pullback is the zero class.  Without a rational cover only the
    valuation and fiber certificates are checked, and a note says so.
    """
    checks = []
    notes = []
    x = ClosedPoint.rational(witness.base, witness.basepoint_t)
    vx = valuation_at(witness.g, x)
    checks.append(
        WitnessCheck(
            "cover-vanishes-simply-at-point",
            vx == 1,
            f"v(g) = {vx} at t = {witness.basepoint_t}",
        )
    )
    checks.append(witness._fiber_root_check())
    full = witness.m == 2 and witness.reparam is not None
    if not full:
        notes.append(
            "full splitting verification needs p = 2 and a rational cover; "
            "only valuation and fiber certificates were checked"
        )
        return WitnessReport("certificates-only", tuple(checks), tuple(notes))
    pulled = pullback_class(cls, witness.reparam)
    above = ClosedPoint.rational(cls.base, cls.base.field.zero)
    rc = residue_at(pulled, above)
    checks.append(
        WitnessCheck(
            "pullback-unramified-above-point",
            rc.is_trivial(),
            "residue at s = 0 of the pulled-back class is trivial",
        )
    )
    bare = witness.symbol is not None and classes_equal(
        cls, BrauerClass.make(cls.base, cls.p, [witness.symbol])
    )
    if bare:
        cmp = compare_classes(pulled, BrauerClass.zero(cls.base, cls.p))
        # cmp.net has the pullback's residues up to p-th powers: no point, no divisor
        n = 0 if cmp.point is None else len(ramification_divisor(pulled).entries)
        checks.append(
            WitnessCheck(
                "pullback-divisor-empty",
                cmp.point is None,
                f"pullback ramifies at {n} points",
            )
        )
        if cmp.point is not None:
            detail = "a ramified pullback is not a constant class"
        elif cls.base.is_finite:
            detail = FINITE_CONSTANTS_TRIVIAL
        else:
            detail = f"specialization at s = {cmp.at} is a trivial constant class"
        checks.append(WitnessCheck("pullback-constant-trivial", cmp.equal, detail))
    else:
        notes.append(
            "class is not the bare witnessed symbol; only residues above "
            "the witnessed point were required to vanish"
        )
    return WitnessReport("full", tuple(checks), tuple(notes))


def make_unramified_cover(cls, x, b=None):
    """Kummer datum T^m = f*f(x)^(m-1) killing the ramification of cls.

    x is a rational value outside the ramification locus; b is a closed
    point (default infinity) where all poles of f are placed.  With
    b = infinity, f is the product of the support polynomials.  For a
    finite b, poles at b and an auxiliary zero balance the degree so
    that nothing else ramifies at infinity unless the class does.
    """
    base = cls.base
    m = cls.p
    div = ramification_divisor(cls)
    supp = div.support()
    xval = base.field.coerce(x)
    xpt = ClosedPoint.rational(base, xval)
    bpt = ClosedPoint.infinity(base) if b is None else b
    if xpt in supp:
        raise ValueError("the basepoint lies in the ramification locus")
    if bpt in supp:
        raise ValueError("the pole point lies in the ramification locus")
    if xpt == bpt:
        raise ValueError("basepoint and pole point must differ")
    finite_supp = [pt for pt in supp if not pt.is_infinity]
    inf_ramified = any(pt.is_infinity for pt in supp)
    prod = Poly.one(base.field)
    for pt in finite_supp:
        prod = prod * pt.poly
    if bpt.is_infinity:
        if inf_ramified:
            raise ValueError("infinity is ramified; choose a finite pole point")
        f = RationalFunction(prod)
    else:
        f = _finite_pole_function(base, m, prod, inf_ramified, supp, xpt, bpt)
    fx = f.evaluate(xval)
    if fx == base.field.zero:
        raise AssertionError("f vanishes at the basepoint despite x outside D")
    g = f * RationalFunction.constant(base.field, fx) ** (m - 1)
    return KummerCoverDatum(
        kind="unramified",
        base=base,
        m=m,
        g=g,
        basepoint_t=xval,
        fiber_root=fx,
        f=f,
    )


def _finite_pole_function(base, m, prod, inf_ramified, supp, xpt, bpt):
    """f = prod * (t - e)^j / pi_b^K with controlled infinity valuation.

    Valuation bookkeeping: v_inf(f) = K*deg(pi_b) - deg(prod) - j must be
    1 when infinity is ramified (a simple zero there) and 0 otherwise.
    The auxiliary multiplicity j is taken divisible by m whenever the
    congruence allows, so the cover does not pick up needless branch
    points; either way the required certificates are unaffected.
    """
    beta = bpt.degree
    s = prod.degree
    w_inf = 1 if inf_ramified else 0
    k_pole = max(1, -(-(s + w_inf) // beta))
    j = k_pole * beta - s - w_inf
    if j % m:
        for cand in range(k_pole, k_pole + m * beta + 1):
            if (cand * beta - s - w_inf) % m == 0:
                k_pole = cand
                j = cand * beta - s - w_inf
                break
    f = RationalFunction(prod, bpt.poly**k_pole)
    if j:
        e = _auxiliary_value(base, supp, xpt, bpt)
        lin = Poly(base.field, [-e, base.field.one])
        f = f * RationalFunction(lin**j)
    return f


def _auxiliary_value(base, supp, xpt, bpt):
    """A rational value e with (t - e) clear of D, the basepoint, and b."""
    for c in sweep_values(base):
        pt = ClosedPoint.rational(base, c)
        if pt == xpt or pt == bpt or pt in supp:
            continue
        return c
    raise ValueError("no auxiliary rational point available over this base")


def unramified_cover_certificates(cls, witness):
    """Eisenstein valuations, basepoint regularity, and the fiber root."""
    div = ramification_divisor(cls)
    checks = []
    for pt, _ in div.entries:
        v = valuation_at(witness.g, pt)
        checks.append(
            WitnessCheck(
                "eisenstein-valuation",
                v == 1,
                f"v(g) = {v} at {pt}",
            )
        )
    f, c = witness.f, witness.basepoint_t
    fx = f.evaluate(c) if f is not None and f.den.evaluate(c) else None
    checks.append(
        WitnessCheck(
            "basepoint-regular",
            fx is not None and fx != cls.base.field.zero,
            f"f({c}) = {fx}",
        )
    )
    checks.append(witness._fiber_root_check())
    return WitnessReport("certificates-only", tuple(checks), ())
