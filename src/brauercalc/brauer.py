"""Symbol presentations of p-torsion Brauer classes over k(t).

A class is a formal sum of degree-p symbols (a, b) with a, b nonzero
rational functions.  The tame residue at a closed point x sends the
symbol to the class of

    (-1)^(v(a) v(b)) * a^(v(b)) * b^(-v(a))

in kappa(x)* mod p-th powers, where v is the valuation at x; at
infinity v counts pole order of 1/t.  The uniformizer powers cancel,
so it is (-1)^(v(a) v(b)) * u_a^(v(b)) / u_b^(v(a)) for the images
u_a, u_b of the unit parts of a and b; points.tame_symbol_at builds it
in one pass, from one strip of each of the four sides at any point.  The
residue of a sum is the product of its symbols' residues, symbol by symbol:
a symbol remembers its tame symbol at each point and, once ramification_points
has factored its entries, its zero and pole points, off which residue_at
skips it; specialization reads unit parts alone, each entry once per point.

Everything here treats a class through one chosen presentation, but the
exported predicates (triviality of residues, equality of classes, read
off the formal difference with equal symbols cancelled mod p, and equal
with nothing specialized if none is left) only depend on the class itself.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from fractions import Fraction

from .errors import NotSymbolRegular, Record, ScopeError
from .fields import rational_is_square
from .hilbert import local_invariants, nonsplit_places, square_classes
from .points import (
    ClosedPoint,
    residue_field,
    sorted_points,
    sweep_values,
    tame_symbol_at,
    unit_part_at,
    zero_points,
)
from .poly import RationalFunction
from .residues import ResidueClass, corestriction_exponent, norm_to_base


class Symbol(Record):
    """One degree-p symbol (a, b); both entries are nonzero."""

    __slots__ = ("a", "b", "_tame", "_points", "_hash")

    def __post_init__(self):
        # memos: the tame symbol per point, the zero/pole points once known
        object.__setattr__(self, "_tame", {})
        object.__setattr__(self, "_points", None)

    def __hash__(self):
        """The hash of (a, b), kept on first use."""
        h = getattr(self, "_hash", None)
        if h is None:
            h = hash((self.a, self.b))
            object.__setattr__(self, "_hash", h)
        return h


class BrauerClass(Record):
    """A sum of symbols over a fixed base field and torsion p."""

    __slots__ = ("base", "p", "symbols")

    @classmethod
    def make(cls, base, p, pairs):
        base.check_torsion(p)
        field = base.field
        syms = []
        for a, b in pairs:
            fa, fb = RationalFunction.coerce(field, a), RationalFunction.coerce(field, b)
            if fa.is_zero or fb.is_zero:
                raise ValueError("symbol entries must be nonzero")
            syms.append(Symbol(fa, fb))
        return cls(base, p, tuple(syms))

    @classmethod
    def zero(cls, base, p):
        return cls.make(base, p, [])

    def __add__(self, other):
        if self.base != other.base or self.p != other.p:
            raise ValueError("classes over different settings")
        return BrauerClass(self.base, self.p, self.symbols + other.symbols)

    def __neg__(self):
        inv = tuple(Symbol(s.a, s.b.inverse()) for s in self.symbols)
        return BrauerClass(self.base, self.p, inv)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, k):
        """k-fold multiple, realized entrywise as (a, b^k)."""
        k %= self.p
        if k == 0:
            return BrauerClass(self.base, self.p, ())
        return BrauerClass(
            self.base, self.p, tuple(Symbol(s.a, s.b**k) for s in self.symbols)
        )

    def pairs(self):
        return tuple((s.a, s.b) for s in self.symbols)


def _symbol_points(s, base):
    """Infinity and the factors of the entries: where a valuation can be nonzero."""
    if s._points is None:
        sets = [zero_points(base, f) for f in (s.a.num, s.a.den, s.b.num, s.b.den) if f.degree > 0]
        object.__setattr__(s, "_points", frozenset([ClosedPoint.infinity(base)]).union(*sets))
    return s._points


def residue_at(cls, point):
    """Tame residue of the class at a closed point, as a ResidueClass."""
    if point.base != cls.base:
        raise ValueError("point over a different base field")
    acc = None
    for s in cls.symbols:
        if s._points is not None and point not in s._points:
            continue
        if point not in s._tame:
            s._tame[point] = tame_symbol_at(s.a, s.b, point)
        val = s._tame[point]
        if val is not None:
            acc = val if acc is None else acc * val
    return ResidueClass(point, residue_field(point).one if acc is None else acc, cls.p)


class RamificationDivisor(Record):
    """The nontrivial residues of a class, sorted by point."""

    __slots__ = ("base", "p", "entries")  # entries: ((point, ResidueClass), ...) in point order

    def support(self):
        return tuple(x for x, _ in self.entries)


def ramification_points(cls):
    """Candidate points: infinity plus every irreducible factor of an entry."""
    sets = (_symbol_points(s, cls.base) for s in cls.symbols)
    return sorted_points(frozenset([ClosedPoint.infinity(cls.base)]).union(*sets))


def ramification_divisor(cls):
    entries = []
    for x in ramification_points(cls):
        rc = residue_at(cls, x)
        if not rc.is_trivial():
            entries.append((x, rc))
    return RamificationDivisor(cls.base, cls.p, tuple(entries))


def reciprocity_check(cls):
    """Whether the residues satisfy the global compatibility relation.

    Over a finite constant field the corestriction exponents must sum to
    zero mod p; over Q the product of the norms of the residues must be
    a rational square.  Both hold for every symbol presentation, so a
    failure means the input data is inconsistent; the check exists to
    validate externally supplied or reconstructed divisors.
    """
    div = ramification_divisor(cls)
    return divisor_reciprocity(div)


def divisor_reciprocity(div):
    if div.base.is_finite:
        total = sum(corestriction_exponent(x, rc.value, div.p) for x, rc in div.entries)
        return total % div.p == 0
    prod = Fraction(1)
    for x, rc in div.entries:
        prod *= norm_to_base(x, rc.value)
    return rational_is_square(prod)


def _values_at(cls, c):
    """The entries' unit parts at t = c as constant pairs, each entry object read
    once, or None unless every valuation is 0 (for coprime entries, regular)."""
    x, units = ClosedPoint.rational(cls.base, c), {}
    for f in (f for s in cls.symbols for f in (s.a, s.b) if id(f) not in units):
        v, units[id(f)] = unit_part_at(f, x)
        if v:
            return None
    return tuple((units[id(s.a)], units[id(s.b)]) for s in cls.symbols)


def specialize(cls, c):
    """Entrywise values at t = c, as constant symbol pairs, read off each
    entry's unit part in one pass; nothing is factored."""
    vals = _values_at(cls, c)
    if vals is None:
        raise NotSymbolRegular(f"some entry has a zero or pole at t = {c}")
    return vals


def constant_is_trivial(base, pairs, p):
    """Triviality of a sum of constant symbols over the base field.

    Br(F_q) vanishes, so over a finite field the answer is always yes.
    Over Q (p = 2) the class is trivial exactly when the product of the
    Hilbert symbols is +1 at every relevant place.
    """
    if base.is_finite:
        return True
    if p != 2:
        raise ScopeError(f"constant classes over Q only for p = 2 (got {p})")
    for a, b in pairs:
        if a == 0 or b == 0:
            raise ValueError("constant symbol entries must be nonzero")
    return all(s == 1 for s in local_invariants(pairs).values())


FINITE_CONSTANTS_TRIVIAL = "constant classes over a finite field are trivial"


class ClassComparison(Record):
    """Two classes compared once, with what decided their equality.

    c1 and c2 are the classes and net their formal difference, equal
    symbols cancelled mod p; no divisor is built.  point is the first point,
    in sorted order, where their residues differ, which is the first point
    of net with a nontrivial residue, and residue the residue of the
    difference there; both are None when the difference is unramified.  An
    unramified difference over Q is a constant class: left_pairs and
    right_pairs are the two classes specialized at at, the first value
    symbol-regular for both (no entry factored), left_classes and
    right_classes the same pairs as square classes (hilbert.square_classes),
    and left_places and right_places their nonsplit places, sorted by
    place_key; otherwise these seven are None.  They are built on first
    read, into __dict__: equal reads them unless the net is empty.
    """

    __slots__ = ("c1", "c2", "net", "point", "residue", "__dict__")

    def __post_init__(self):
        object.__setattr__(self, "equal", self.point is None and (
            not self.net.symbols or self.left_places == self.right_places))

    @cached_property
    def _constant(self):
        """The seven, from one sweep of unit parts over c1 + c2, each symbol read
        through the first one equal to it by value: c1 - c2, never built, has
        c1's pairs and (a, 1/b), with the invariants of (a, b), for each of c2's."""
        c1, c2 = self.c1, self.c2
        if self.point is not None or c1.base.is_finite:
            return (None,) * 7
        canon = {}
        syms = tuple(canon.setdefault(s, s) for s in c1.symbols + c2.symbols)
        both = BrauerClass(c1.base, c1.p, syms)  # symbol-regular exactly where c1 - c2 is
        at = next(c for c in sweep_values(c1.base) if (vals := _values_at(both, c)) is not None)
        lp, rp = vals[:len(c1.symbols)], vals[len(c1.symbols):]
        lk, rk = square_classes(lp, rp)
        return (at, lp, rp, lk, rk, *nonsplit_places(lk, rk))

    at, left_pairs, right_pairs, left_classes, right_classes, left_places, right_places = (
        property(lambda self, i=i: self._constant[i]) for i in range(7))

    def residues_at(self, x):
        """The residues of c1 and c2 at x, each None where trivial."""
        rcs = (residue_at(self.c1, x), residue_at(self.c2, x))
        return tuple(None if rc.is_trivial() else rc for rc in rcs)


def compare_classes(c1, c2):
    """Exact comparison of two classes in the Brauer group.

    Symbols are counted by value, c1's once and c2's minus once each,
    and each is kept net count mod p times (p copies of a degree-p
    symbol are zero); an empty net proves c1 = c2 with no sweep.  The net
    class has the residues of c1 - c2 up to p-th powers: its first point
    with a nontrivial residue is the first where c1 and c2 differ, and the
    residue there is c1's over c2's.  Otherwise the difference is constant,
    trivial over a finite field; over Q the record's equal compares the
    nonsplit places of the two halves, each pair checked for reciprocity.
    """
    if c1.base != c2.base or c1.p != c2.p:
        raise ValueError("classes over different settings")
    p, count = c1.p, Counter(c1.symbols)
    count.subtract(c2.symbols)
    net = BrauerClass(c1.base, p, tuple(t for s, k in count.items() for t in [s] * (k % p)))
    for x in ramification_points(net):
        if not residue_at(net, x).is_trivial():
            v1, v2 = residue_at(c1, x).value, residue_at(c2, x).value
            return ClassComparison(c1, c2, net, x, ResidueClass(x, v1 / v2, p))
    return ClassComparison(c1, c2, net)


def classes_equal(c1, c2):
    """Exact equality of two classes in the Brauer group."""
    return compare_classes(c1, c2).equal
