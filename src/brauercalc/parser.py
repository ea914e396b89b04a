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

A text is first searched once for a character outside the grammar, the
first of which is a ParseError; then one findall splits it into token
strings, each run of ASCII digits one integer literal and every other
non-space character one token.  Offsets are not kept: an error finds its
token's offset by scanning the text again.

Every Product is a monomial c*t^k, so each Poly is read in one loop over
its tokens: every literal is reduced mod the characteristic over F_q as
it is read, and the monomials are summed by exponent into one coefficient
list.  A product that is zero in the field has degree -1 in the degree
check, as a Poly would.

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

import re

from .brauer import BrauerClass, Symbol
from .errors import ParseError, ScopeError
from .poly import Poly, QQ, RationalFunction, _q_form, cleared_ints, poly_str, ratfunc_str
from .poly import terms_str

# Every entry is factored over the base (over Q by Zassenhaus, whose
# recombination can grow exponentially with the degree), so the degree of
# each numerator and denominator is bounded.
MAX_ENTRY_DEGREE = 32

# [0-9], not \d, which also matches other scripts' digits, such as U+0663
_TOKEN = r"[0-9]+|\S"
_tokens = re.compile(_TOKEN).findall
_stray = re.compile(r"[^\s0-9t+\-*/^(),]").search


def _int_literal(digits, off):
    """The value of an integer literal; one too long for int() is out of scope."""
    try:
        return int(digits)
    except ValueError:
        raise ScopeError(
            f"offset {off}: integer literal of {len(digits)} digits is too long"
        ) from None


class _Reader:
    """The grammar over one text's token strings, read from pos; the list
    ends in "", the end of the text."""

    def __init__(self, text, field):
        stray = _stray(text)
        if stray:
            raise ParseError(stray.start(), f"unexpected character {stray.group()!r}")
        self.text, self.field = text, field
        self.toks = _tokens(text) + [""]
        self.pos = 0

    def offset(self, i):
        """The offset of token i, found for an error by scanning the text again."""
        starts = [m.start() for m in re.finditer(_TOKEN, self.text)]
        return starts[i] if i < len(starts) else len(self.text)

    def too_high(self, degree, i):
        return ScopeError(f"offset {self.offset(i)}: degree {degree} is above the "
                          f"supported entry degree {MAX_ENTRY_DEGREE}")

    def expect(self, tok, what):
        if self.toks[self.pos] != tok:
            raise ParseError(self.offset(self.pos), f"expected {what}")
        self.pos += 1

    def end(self):
        tok = self.toks[self.pos]
        if tok:
            raise ParseError(self.offset(self.pos), f"unexpected {tok!r}")

    def parse_class(self):
        toks = self.toks
        if toks[0] == "0" and toks[1]:
            raise ParseError(self.offset(1), "nothing may follow the zero class")
        if toks[0] in ("", "0"):
            return []
        pairs = [self.term()]
        while toks[self.pos] == "+":
            self.pos += 1
            pairs.append(self.term())
        self.end()
        return pairs

    def term(self):
        self.expect("(", "'('")
        a = self.rat()
        self.expect(",", "','")
        b = self.rat()
        self.expect(")", "')'")
        return Symbol(a, b)

    def rat(self, allow_zero=False):
        start = self.pos
        num, den = self.poly(), None
        if self.toks[self.pos] == "/":
            self.pos += 1
            dstart = self.pos
            den = self.poly()
            if den.is_zero:
                raise ParseError(self.offset(dstart), "zero denominator")
        if num.is_zero and not allow_zero:
            raise ParseError(self.offset(start), "zero entry in symbol")
        return RationalFunction(num, den)

    def poly(self):
        """One Poly, its monomials c*t^k summed by exponent in one loop.  A
        factor after the first is checked at its "*" or implicit "t" (join),
        with degree -1 for c = 0, so the checks see what Poly arithmetic
        would; the first needs no check, as t^e checks e itself."""
        toks, i, char = self.toks, self.pos, self.field.char
        ints, sign = [], 1
        if toks[i] == "-":
            sign, i = -1, i + 1
        c, k, join = 1, 0, i  # the product so far
        try:
            while True:
                tok = toks[i]
                if "0" <= tok < ":":  # of the tokens, only digit runs sort here
                    c2, k2 = int(tok) % char if char else int(tok), 0
                elif tok != "t":
                    raise ParseError(self.offset(i), "expected a number or t")
                elif toks[i + 1] != "^":
                    c2, k2 = 1, 1
                else:
                    i += 2
                    if not "0" <= toks[i] < ":":
                        raise ParseError(self.offset(i), "expected an integer exponent")
                    c2, k2 = 1, int(toks[i])
                    if k2 > MAX_ENTRY_DEGREE:
                        raise self.too_high(k2, i)
                degree = (k if c else -1) + (k2 if c2 else -1)
                if degree > MAX_ENTRY_DEGREE:
                    raise self.too_high(degree, join)
                c, k, i = c * c2 % char if char else c * c2, k + k2, i + 1
                tok = toks[i]
                if tok == "*" or tok == "t":  # a factor follows
                    join = i
                    i += tok == "*"
                    continue
                if c:  # the product is done: add it to its coefficient
                    ints += [0] * (k + 1 - len(ints))
                    ints[k] += sign * c
                if tok != "+" and tok != "-":
                    break
                sign, c, k, i = 1 if tok == "+" else -1, 1, 0, i + 1
        except ValueError:  # int() refuses a literal of over 4300 digits
            raise ScopeError(f"offset {self.offset(i)}: integer literal of {len(toks[i])} "
                             "digits is too long") from None
        self.pos = i
        return Poly.from_ints(self.field, ints) if char else Poly._q(_q_form(ints, 1))


def parse_class(text, base, p):
    """Parse an expression into a class over the given base and torsion."""
    symbols = tuple(_Reader(text, base.field).parse_class())
    base.check_torsion(p)  # after reading: a parse error wins over a scope error
    return BrauerClass(base, p, symbols)


def parse_ratfunc(text, field):
    """Parse a single Rat (used for witness files)."""
    reader = _Reader(text, field)
    r = reader.rat(allow_zero=True)
    reader.end()
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
