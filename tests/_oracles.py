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
when its prime search cannot prove f squarefree; its rational roots are
listed by the rational root theorem, every candidate +-a/b with a | f(0)
and b | lc(f) tried by integer evaluation.  Class text is re-read by a
recursive descent over (kind, text, offset) tuples from a scan a
character at a time, a method call per token step and every term read
afresh, each Poly by Poly arithmetic: every literal and every t^e becomes
a Poly, multiplied and added as read.  Whether two residues cut out the
same Kummer extension is read off p-th power tests alone.  A valuation at a
finite point is read off poly_strip, Poly division by the point's
polynomial, over every base field.  What a polynomial over QQ reports
(coefficients, integer form, degree, leading coefficient, sort key) is
read off its trimmed Fraction tuple alone, denominators cleared by their
product.  A resultant is the determinant of the Sylvester matrix, by
Gaussian elimination over the coefficient field.  The coefficient-list
kernel of poly is checked against the loops it replaced: the sum, product,
division and derivative over a field, written per coefficient with every
zero test an == against the field's zero, and division in (Z/m)[t] with
every entry reduced at every step.  The points where specializations are
taken, regular_rational_points, are the sweep values that
is_symbol_regular accepts, in sweep order.  An enumerated candidate is
realized from fresh symbol pairs for its own targets, by
BrauerClass.make, nothing shared between candidates.
"""

import itertools
import math
import operator
from fractions import Fraction
from collections import namedtuple
from functools import reduce
from math import prod

from brauercalc.brauer import (
    BrauerClass,
    constant_is_trivial,
    is_symbol_regular,
    ramification_divisor,
    specialize,
)
from brauercalc.distinguish import _residue_symbols
from brauercalc.errors import ParseError, ScopeError
from brauercalc.factoring import _squarefree, _zassenhaus, factor_poly
from brauercalc.hilbert import hilbert_symbol, relevant_places
from brauercalc.parser import MAX_ENTRY_DEGREE
from brauercalc.points import (
    ClosedPoint,
    residue_field,
    sorted_points,
    sweep_values,
    unit_part_at,
)
from brauercalc.poly import Poly, QQ, RationalFunction, _gcd
from brauercalc.residues import ResidueClass, corestriction_exponent, is_pth_power


def _check_degree(degree, off):
    if degree > MAX_ENTRY_DEGREE:
        raise ScopeError(
            f"offset {off}: degree {degree} is above the supported entry "
            f"degree {MAX_ENTRY_DEGREE}"
        )


def _int_literal(digits, off):
    try:
        return int(digits)
    except ValueError:
        raise ScopeError(
            f"offset {off}: integer literal of {len(digits)} digits is too long"
        ) from None


def _tokenize(text):
    """(kind, text, offset) per token, scanned a character at a time, and an
    ("end", "", len(text)) token."""
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            toks.append(("int", text[i:j], i))
            i = j
            continue
        if ch == "t":
            toks.append(("var", ch, i))
            i += 1
            continue
        if ch in "+-*/^(),":
            toks.append((ch, ch, i))
            i += 1
            continue
        raise ParseError(i, f"unexpected character {ch!r}")
    toks.append(("end", "", n))
    return toks


class TokenTupleReader:
    """The class grammar by recursive descent over (kind, text, offset)
    tuples, one method call per token step: the reference for the
    library's reader.  A subclass reads each Poly."""

    def __init__(self, text, field):
        self.toks = _tokenize(text)
        self.pos = 0
        self.field = field

    def peek(self):
        return self.toks[self.pos]

    def advance(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind, what):
        tok = self.peek()
        if tok[0] != kind:
            raise ParseError(tok[2], f"expected {what}")
        return self.advance()

    def parse_class(self):
        tok = self.peek()
        if tok[0] == "end":
            return []
        if tok[0] == "int" and tok[1] == "0":
            nxt = self.toks[self.pos + 1]
            if nxt[0] != "end":
                raise ParseError(nxt[2], "nothing may follow the zero class")
            return []
        pairs = [self.term()]
        while self.peek()[0] == "+":
            self.advance()
            pairs.append(self.term())
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(tok[2], f"unexpected {tok[1]!r}")
        return pairs

    def term(self):
        self.expect("(", "'('")
        a = self.rat()
        self.expect(",", "','")
        b = self.rat()
        self.expect(")", "')'")
        return a, b

    def rat(self):
        start = self.peek()[2]
        num = self.poly()
        den = None
        if self.peek()[0] == "/":
            self.advance()
            dstart = self.peek()[2]
            den = self.poly()
            if den.is_zero:
                raise ParseError(dstart, "zero denominator")
        if num.is_zero:
            raise ParseError(start, "zero entry in symbol")
        return RationalFunction(num, den) if den is not None else RationalFunction(num)


class PolyArithmeticParser(TokenTupleReader):
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
                return Poly.from_ints(self.field, [0, 1]) ** e
            return Poly.from_ints(self.field, [0, 1])
        raise ParseError(off, "expected a number or t")


QQPoly = namedtuple("QQPoly", "coeffs int_form degree lc sort_key")


def qq_poly_oracle(coeffs):
    """QQPoly of the polynomial over QQ with these rational coefficients,
    lowest degree first; int_form and lc are None for zero.  The integer
    form clears denominators by their product and divides by the gcd,
    signed so the leading entry is positive; the sort key is the degree
    and each coefficient after its floor."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    cs, n = tuple(cs), len(cs) - 1
    if not cs:
        return QQPoly(cs, None, -1, None, (-1, ()))
    big = [int(c * prod(d.denominator for d in cs)) for c in cs]
    g = reduce(math.gcd, big, 0) * (1 if big[-1] > 0 else -1)
    ints = tuple(b // g for b in big)
    key = (n, tuple((math.floor(c), c) for c in cs))
    return QQPoly(cs, (cs[-1] / ints[-1], ints), n, cs[-1], key)


def realize_candidates_unshared(a, sequences):
    """The candidates of a for the exponent tuples sequences, each realized
    alone: fresh symbol pairs for its targets i_j cor_j at the support
    points, the finite ones, made into a class by BrauerClass.make."""
    div = ramification_divisor(a)
    cor = [corestriction_exponent(x, rc.value, a.p) for x, rc in div.entries]
    out = []
    for tup in sequences:
        pairs = [s for x, i, n in zip(div.support(), tup, cor) if not x.is_infinity
                 for s in _residue_symbols(a.base, a.p, x, i * n % a.p)]
        out.append(BrauerClass.make(a.base, a.p, pairs))
    return out


def regular_rational_points(cls):
    """The symbol-regular values c, lazily, in the fixed sweep order."""
    return (c for c in sweep_values(cls.base) if is_symbol_regular(cls, c))


def candidate_points(cls):
    """Infinity plus every irreducible factor of every entry, factored afresh."""
    cands = {ClosedPoint.infinity(cls.base)}
    for s in cls.symbols:
        for f in (s.a.num, s.a.den, s.b.num, s.b.den):
            if f.degree >= 1:
                cands.update(ClosedPoint(cls.base, g) for g, _ in factor_poly(f))
    return sorted_points(cands)


class _FractionRing:
    """Q[t] on Poly with Fraction coefficients, whose gcd is Euclid over the
    field, not poly_gcd's integer forms: the operations the squarefree loop
    reads in characteristic 0."""

    char = 0
    gcd = _gcd
    deg = staticmethod(operator.attrgetter("degree"))
    divmod = staticmethod(divmod)
    quo = staticmethod(Poly.exact_div)
    monic = staticmethod(Poly.monic)
    derivative = staticmethod(Poly.derivative)


def sylvester_resultant(f, g):
    """det Syl(f, g), f's deg(g) rows above g's deg(f) rows, coefficients
    highest first; for g = 0, 1 at a constant f and 0 otherwise."""
    field = f.field
    if g.is_zero:
        return field.one if f.degree == 0 else field.zero
    n, m = f.degree, g.degree
    size = n + m
    rows = [[field.zero] * i + list(reversed(f.coeffs)) + [field.zero] * (m - 1 - i)
            for i in range(m)]
    rows += [[field.zero] * i + list(reversed(g.coeffs)) + [field.zero] * (n - 1 - i)
             for i in range(n)]
    det = field.one
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != field.zero), None)
        if pivot is None:
            return field.zero
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = field.one / rows[col][col]
        for r in range(col + 1, size):
            c = rows[r][col] * inv
            rows[r] = [x - c * y for x, y in zip(rows[r], rows[col])]
    return det


def factor_over_Q_by_zassenhaus(f):
    """[(monic irreducible factor, multiplicity)] of the nonconstant f over
    Q, sorted, with every factor found by Zassenhaus on the squarefree
    parts that the squarefree loop finds over Fraction coefficients."""
    pieces = [
        (part, mult)
        for g, mult in _squarefree(_FractionRing(), f.monic())
        for part in _zassenhaus(g.int_form()[1])
    ]
    out = [(Poly.from_ints(QQ, part).monic(), mult) for part, mult in pieces]
    return sorted(out, key=lambda fm: fm[0].sort_key())


def _divisors(n):
    """The positive divisors of a nonzero integer, by trial division."""
    n, out, d = abs(n), set(), 1
    while d * d <= n:
        if n % d == 0:
            out.update((d, n // d))
        d += 1
    return out


def rational_roots_oracle(ints):
    """{root: multiplicity} of the nonzero integer list ints (lowest degree
    first) over Q, by the rational root theorem after t^z is split off."""
    z = next(i for i, c in enumerate(ints) if c)
    roots, f = ({Fraction(0): z} if z else {}), list(ints[z:])
    for b in _divisors(f[-1]):
        for a in _divisors(f[0]):
            for x in (Fraction(a, b), Fraction(-a, b)):
                if x in roots or sum(
                    c * x.numerator**i * x.denominator ** (len(f) - 1 - i) for i, c in enumerate(f)
                ):
                    continue
                g, mult = [Fraction(c) for c in f], 0
                while len(g) > 1:
                    # synthetic division by t - x, high coefficients first
                    acc, quo = Fraction(0), []
                    for c in reversed(g):
                        acc = acc * x + c
                        quo.append(acc)
                    if acc:
                        break
                    g, mult = quo[-2::-1], mult + 1
                roots[x] = mult
    return roots


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


# the attributes of brauer.ClassComparison that compare_by_difference fills
DifferenceRecord = namedtuple(
    "DifferenceRecord", "c1 c2 net equal point residue at left_pairs right_pairs",
    defaults=(None,) * 5,
)


def compare_by_difference(c1, c2):
    """The comparison record as read off c1 - c2: the residue of the
    difference at the first differing point, and its specialization."""
    d1, d2 = (dict(ramification_divisor(c).entries) for c in (c1, c2))
    diff = c1 - c2
    for x in sorted_points(set(d1) | set(d2)):
        r1, r2 = d1.get(x), d2.get(x)
        if r1 is None or r2 is None or not is_pth_power(r1.field, r1.value / r2.value, c1.p):
            rc = ResidueClass(x, residue_value_oracle(diff, x), c1.p)
            return DifferenceRecord(c1, c2, diff, False, x, rc)
    if c1.base.is_finite:
        return DifferenceRecord(c1, c2, diff, True)
    at = next(regular_rational_points(diff))
    pairs, n = specialize(diff, at), len(c1.symbols)
    right = tuple((x, 1 / y) for x, y in pairs[n:])
    return DifferenceRecord(c1, c2, diff, constant_is_trivial(c1.base, pairs, c1.p), at=at,
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


def _trimmed(cs, zero):
    cs = list(cs)
    while cs and cs[-1] == zero:
        cs.pop()
    return cs


def field_list_sum(field, a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [field.zero] * (n - len(a)), list(b) + [field.zero] * (n - len(b))
    return _trimmed([x + y for x, y in zip(a, b)], field.zero)


def field_list_product(field, a, b):
    out = [field.zero] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x == field.zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _trimmed(out, field.zero)


def field_list_divmod(field, a, b):
    """(q, r) with a = q b + r over the field, b nonzero and trimmed."""
    rem, db = list(a), len(b) - 1
    if len(rem) <= db:
        return [], _trimmed(rem, field.zero)
    inv_lc = field.one / b[-1]
    quo = [field.zero] * (len(rem) - db)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c == field.zero:
            continue
        q = c * inv_lc
        quo[i - db] = q
        for j, y in enumerate(b, i - db):
            rem[j] = rem[j] - q * y
    return _trimmed(quo, field.zero), _trimmed(rem[:db], field.zero)


def field_list_derivative(field, a):
    return _trimmed([field.from_int(i) * c for i, c in enumerate(a)][1:], field.zero)


def int_list_derivative(a, m=None):
    """The derivative over Z, or modulo m with entries in [0, m)."""
    d = [i * c for i, c in enumerate(a)][1:]
    return _trimmed([c % m for c in d] if m else d, 0)


def zdivmod_mod_oracle(a, b, m):
    """Division with remainder in (Z/m)[t]; lc(b) must be invertible mod m."""
    rem = _trimmed([c % m for c in a], 0)
    b = _trimmed([c % m for c in b], 0)
    inv = pow(b[-1], -1, m)
    db = len(b) - 1
    quo = [0] * max(len(rem) - db, 0)
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if not c:
            continue
        q = c * inv % m
        quo[i - db] = q
        for j, y in enumerate(b, i - db):
            rem[j] = (rem[j] - q * y) % m
    return _trimmed(quo, 0), _trimmed(rem[:db], 0)
