"""Expression grammar for symbol classes, and the matching printer.

    Class := "0" | Term ("+" Term)*
    Term  := "(" Rat "," Rat ")"
    Rat   := Poly ("/" Poly)?
    Poly  := ["-"] Product (("+"|"-") Product)*
    Product := Factor (("*")? Factor)*    (implicit "*" only before t)
    Factor  := integer | "t" ("^" integer)?

No numerator or denominator may have degree above MAX_ENTRY_DEGREE; a
larger exponent or product raises ScopeError (CLI exit 3) as soon as it
is read, before anything is multiplied out or factored.  So does an
integer literal too long for Python's int() (more than 4300 digits by
default).

Every Product is a monomial c*t^k, so it is read as an integer (reduced
mod the characteristic over F_q) and an exponent; the monomials of a
Poly are summed by exponent into one coefficient list.  A product that
is zero in the field has degree -1 in the degree check, as a Poly would.

Whitespace is insignificant.  The single "/" splits a Rat into its
numerator and denominator polynomials, so "t+2/2" reads as (t+2)/2 and
no parentheses occur inside a Rat.  Fractional coefficients are written
through that division: (3*t)/4 rather than a 3/4 coefficient.

The printer emits exactly this grammar back (clearing coefficient
denominators first), which is what makes the print/parse round trip
stable.  Coefficients outside the prime subfield of a nonprime F_q have
no literal syntax; printing such a class falls back to a bracketed
display form that the parser does not accept.
"""

from __future__ import annotations

from .brauer import BrauerClass
from .errors import ParseError, ScopeError
from .poly import Poly, QQ, RationalFunction, cleared_ints, poly_str, ratfunc_str, terms_str

# Every entry is factored over the base (over Q by Zassenhaus, whose
# recombination can grow exponentially with the degree), so the degree of
# each numerator and denominator is bounded.
MAX_ENTRY_DEGREE = 32


def _check_degree(degree, off):
    if degree > MAX_ENTRY_DEGREE:
        raise ScopeError(
            f"offset {off}: degree {degree} is above the supported entry "
            f"degree {MAX_ENTRY_DEGREE}"
        )


def _int_literal(digits, off):
    """The value of an integer literal; one too long for int() is out of scope."""
    try:
        return int(digits)
    except ValueError:
        raise ScopeError(
            f"offset {off}: integer literal of {len(digits)} digits is too long"
        ) from None


def _tokenize(text):
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


class _ClassParser:
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

    def rat(self, allow_zero=False):
        start = self.peek()[2]
        num = self.poly()
        den = None
        if self.peek()[0] == "/":
            self.advance()
            dstart = self.peek()[2]
            den = self.poly()
            if den.is_zero:
                raise ParseError(dstart, "zero denominator")
        if num.is_zero and not allow_zero:
            raise ParseError(start, "zero entry in symbol")
        return RationalFunction(num, den) if den is not None else RationalFunction(num)

    def poly(self):
        """One Poly from the monomials c*t^k, summed by exponent."""
        sign = -1 if self.peek()[0] == "-" else 1
        if sign < 0:
            self.advance()
        terms = {}
        while True:
            c, k = self.product()
            if c:
                terms[k] = terms.get(k, 0) + sign * c
            if self.peek()[0] not in ("+", "-"):
                break
            sign = 1 if self.advance()[0] == "+" else -1
        top = max(terms, default=-1)
        return Poly.from_ints(self.field, [terms.get(k, 0) for k in range(top + 1)])

    def product(self):
        """(c, k) for the monomial c*t^k, with c reduced mod the characteristic;
        c = 0 has degree -1, so degree checks see what Poly arithmetic would."""
        c, k = self.factor()
        while True:
            kind, _, off = self.peek()
            if kind == "*":
                self.advance()
            elif kind != "var":
                return c, k
            c2, k2 = self.factor()
            _check_degree((k if c else -1) + (k2 if c2 else -1), off)
            c, k = self.reduce(c * c2), k + k2

    def factor(self):
        kind, value, off = self.peek()
        if kind == "int":
            self.advance()
            return self.reduce(_int_literal(value, off)), 0
        if kind == "var":
            self.advance()
            if self.peek()[0] == "^":
                self.advance()
                etok = self.expect("int", "an integer exponent")
                e = _int_literal(etok[1], etok[2])
                _check_degree(e, etok[2])
                return 1, e
            return 1, 1
        raise ParseError(off, "expected a number or t")

    def reduce(self, n):
        return n % self.field.char if self.field.char else n


def parse_class(text, base, p):
    """Parse an expression into a class over the given base and torsion."""
    return BrauerClass.make(base, p, _ClassParser(text, base.field).parse_class())


def parse_ratfunc(text, field):
    """Parse a single Rat (used for witness files)."""
    parser = _ClassParser(text, field)
    r = parser.rat(allow_zero=True)
    tok = parser.peek()
    if tok[0] != "end":
        raise ParseError(tok[2], f"unexpected {tok[1]!r}")
    return r


def parse_constant(text, field, what):
    """Parse a Rat that must be a base-field constant (flags, witness fields)."""
    r = parse_ratfunc(text, field)
    if not r.is_constant:
        raise ValueError(f"{what} must be a constant, got {text!r}")
    return r.constant_value()


# ---------------------------------------------------------------------------
# printing

def ratfunc_text(r):
    """Grammar form of a rational function, or a display fallback.

    Over Q the coefficient denominators are cleared into the single
    division allowed by the grammar, and the integer coefficients are
    printed as they are; the fallback (bracketed residue representations
    over nonprime fields) is not re-parseable.
    """
    if r.field is QQ:
        num_s, den_s = (terms_str(map(str, ints)) for ints in cleared_ints(r.num, r.den)[1:])
    else:
        num_s, den_s = poly_str(r.num), poly_str(r.den)
        if "[" in num_s + den_s:  # a coefficient outside the prime subfield
            return ratfunc_str(r)
    return num_s if den_s == "1" else f"{num_s}/{den_s}"


def class_text(cls):
    """Canonical printed form; parses back to the identical symbol list."""
    if not cls.symbols:
        return "0"
    parts = [f"({ratfunc_text(s.a)}, {ratfunc_text(s.b)})" for s in cls.symbols]
    return " + ".join(parts)
