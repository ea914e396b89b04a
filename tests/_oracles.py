"""Reference predicates shared by several test modules.

These deliberately avoid the code paths they are used to check: class
equality is decided from the ramification divisor of the difference plus
Hilbert invariants of specializations at several points, not from the single
constant-class test the library applies; the candidate count recomputes
norms as Frobenius conjugate products and tests p-th power membership
against an enumerated power set.  Residues are recomputed by the
whole-class loop: both unit parts of every symbol at the point, with
nothing remembered on the symbols and nothing skipped, and the comparison
record by building the difference c1 - c2, which stands as its net class.
The factorization over Q is recomputed without the rational-root pass:
Zassenhaus on the whole polynomial, after the squarefree decomposition
when its prime search cannot prove f squarefree.  Class text is re-read
by Poly arithmetic: every literal and every t^e becomes a Poly,
multiplied and added as read.  Whether two residues cut out the same
Kummer extension is read off p-th power tests alone.  A valuation at a
finite point is read off poly_strip, Poly division by the point's
polynomial, over every base field.
"""

import itertools
from math import prod

from brauercalc.brauer import (
    ClassComparison,
    constant_is_trivial,
    ramification_divisor,
    regular_rational_points,
    specialize,
)
from brauercalc.errors import ParseError, ScopeError
from brauercalc.factoring import _zassenhaus, factor_poly, squarefree_decomposition
from brauercalc.hilbert import hilbert_symbol, relevant_places
from brauercalc.parser import _ClassParser, _check_degree, _int_literal
from brauercalc.points import ClosedPoint, residue_field, sorted_points, unit_part_at
from brauercalc.poly import Poly, QQ
from brauercalc.residues import ResidueClass, is_pth_power


class PolyArithmeticParser(_ClassParser):
    """The class grammar read with Poly +, * and **: the reference for the
    library's monomial parser, with the same degree checks at the same
    offsets."""

    def poly(self):
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        acc = self.product()
        if negate:
            acc = -acc
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            nxt = self.product()
            acc = acc + nxt if op == "+" else acc - nxt
        return acc

    def product(self):
        acc = self.factor()
        while True:
            kind, _, off = self.peek()
            if kind == "*":
                self.advance()
            elif kind != "var":
                return acc
            nxt = self.factor()
            _check_degree(acc.degree + nxt.degree, off)
            acc = acc * nxt

    def factor(self):
        kind, value, off = self.peek()
        if kind == "int":
            self.advance()
            c = self.field.from_int(_int_literal(value, off))
            return Poly.constant(self.field, c)
        if kind == "var":
            self.advance()
            if self.peek()[0] == "^":
                self.advance()
                etok = self.expect("int", "an integer exponent")
                e = _int_literal(etok[1], etok[2])
                _check_degree(e, etok[2])
                return Poly.gen(self.field) ** e
            return Poly.gen(self.field)
        raise ParseError(off, "expected a number or t")


def candidate_points(cls):
    """Infinity plus every irreducible factor of every entry, factored afresh."""
    cands = {ClosedPoint.infinity(cls.base)}
    for s in cls.symbols:
        for f in (s.a.num, s.a.den, s.b.num, s.b.den):
            if f.degree >= 1:
                cands.update(ClosedPoint(cls.base, g) for g, _ in factor_poly(f))
    return sorted_points(cands)


def factor_over_Q_by_zassenhaus(f):
    """[(monic irreducible factor, multiplicity)] of the nonconstant f over
    Q, sorted, with every factor found by Zassenhaus."""
    f = f.monic()
    parts = _zassenhaus(f.int_form()[1])
    if parts is None:
        pieces = [
            (part, mult)
            for g, mult in squarefree_decomposition(f)
            for part in _zassenhaus(g.int_form()[1], squarefree=True)
        ]
    else:
        pieces = [(part, 1) for part in parts]
    out = [(Poly.from_ints(QQ, part).monic(), mult) for part, mult in pieces]
    return sorted(out, key=lambda fm: fm[0].sort_key())


def poly_strip(f, pi):
    """(k, r) with k the largest power of pi dividing f and r the nonzero
    remainder of f / pi^k modulo pi; pi must be a nonconstant polynomial."""
    if pi.is_zero or pi.degree < 1:
        raise ValueError("valuation requires a nonconstant modulus")
    if f.is_zero:
        raise ValueError("the zero polynomial has no finite valuation")
    k = 0
    while True:
        q, r = divmod(f, pi)
        if not r.is_zero:
            return k, r
        f = q
        k += 1


def residue_value_oracle(cls, point):
    """The product of (-1)^(va vb) ua^vb / ub^va over every symbol."""
    acc = residue_field(point).one
    for s in cls.symbols:
        va, ua = unit_part_at(s.a, point)
        vb, ub = unit_part_at(s.b, point)
        if va == 0 and vb == 0:
            continue
        val = ua**vb / ub**va
        if (va * vb) % 2:
            val = -val
        acc = acc * val
    return acc


def divisor_oracle(cls):
    """((point, residue value), ...) at the candidates whose residue is not
    a p-th power."""
    out = []
    for x in candidate_points(cls):
        v = residue_value_oracle(cls, x)
        if not is_pth_power(residue_field(x), v, cls.p):
            out.append((x, v))
    return tuple(out)


def same_kummer_extension(field, r1, r2, p):
    """Do r1 and r2 cut out the same degree-p radical extension of field?

    A finite field has a unique extension of each degree, so there the
    two agree exactly when both or neither are p-th powers.  For p = 2
    they agree exactly when their product is a square.
    """
    if field is not QQ and field.finite:
        return is_pth_power(field, r1, p) == is_pth_power(field, r2, p)
    if p == 2:
        return is_pth_power(field, r1 * r2, 2)
    raise ScopeError(f"field comparison over {field!r} only for p = 2 (got {p})")


def compare_by_difference(c1, c2):
    """The comparison record as read off c1 - c2: the residue of the
    difference at the first differing point, and its specialization."""
    d1, d2 = (dict(ramification_divisor(c).entries) for c in (c1, c2))
    diff = c1 - c2
    for x in sorted_points(set(d1) | set(d2)):
        r1, r2 = d1.get(x), d2.get(x)
        if r1 is None or r2 is None or not is_pth_power(r1.field, r1.value / r2.value, c1.p):
            rc = ResidueClass(x, residue_value_oracle(diff, x), c1.p)
            return ClassComparison(c1, c2, diff, False, x, rc)
    if c1.base.is_finite:
        return ClassComparison(c1, c2, diff, True)
    at = next(regular_rational_points(diff))
    pairs, n = specialize(diff, at), len(c1.symbols)
    right = tuple((x, 1 / y) for x, y in pairs[n:])
    return ClassComparison(c1, c2, diff, constant_is_trivial(c1.base, pairs, c1.p), at=at,
                           left_pairs=pairs[:n], right_pairs=right)


def classes_equal_oracle(a, b, samples=10):
    """The divisor of a - b must be empty; over Q the local invariants of
    the specializations must then match at `samples` symbol-regular values.
    The unramified difference is a constant class, so one value would do;
    sampling several keeps the reference honest.  The library compares the
    divisors of a and b instead, and this reference must not call it."""
    if ramification_divisor(a - b).entries:
        return False
    if a.base.is_finite:
        return True
    diff = a - b
    for c in itertools.islice(regular_rational_points(diff), samples):
        pa, pb = specialize(a, c), specialize(b, c)
        for v in relevant_places(list(pa) + list(pb)):
            if prod(hilbert_symbol(x, y, v) for x, y in pa) != prod(
                hilbert_symbol(x, y, v) for x, y in pb
            ):
                return False
    return True


def _to_base(kappa, base_field, v):
    """Pull a Frobenius-fixed value down to the constant field by matching."""
    for c in base_field.elements():
        if kappa.coerce(c) == v:
            return c
    raise AssertionError("norm did not land in the constant field")


def oracle_candidate_count(a):
    """Count twist tuples passing reciprocity, straight from the definition."""
    base_field = a.base.field
    q = base_field.order
    p = a.p
    div = ramification_divisor(a)
    entries = list(div.entries)
    if not entries:
        return 1
    pth_powers = {x**p for x in base_field.elements() if x != base_field.zero}
    count = 0
    for tup in itertools.product(range(1, p), repeat=len(entries)):
        prod = base_field.one
        for (pt, rc), i in zip(entries, tup):
            kappa = residue_field(pt)
            v = rc.value**i
            acc, frob = v, v
            for _ in range(pt.degree - 1):
                frob = frob**q
                acc = acc * frob
            prod = prod * _to_base(kappa, base_field, acc)
        if prod in pth_powers:
            count += 1
    return count
