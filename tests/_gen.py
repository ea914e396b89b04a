"""Seeded random generators shared across the test modules.

Everything takes an explicit random.Random so each test controls its
own stream; no module-level state.
"""

from fractions import Fraction

from brauercalc.brauer import BrauerClass
from brauercalc.points import FiniteBase, Q_BASE
from brauercalc.poly import Poly, RationalFunction

F7 = FiniteBase(7)
F13 = FiniteBase(13)


def rational(rng, height):
    return Fraction(rng.randint(-height, height), rng.randint(1, height))


def nonzero_rational(rng, height):
    while True:
        v = rational(rng, height)
        if v != 0:
            return v


def nonsquare_rational(rng, height):
    """A rational that is not a square (kernel != 1)."""
    from brauercalc.factoring import squarefree_kernel

    while True:
        v = nonzero_rational(rng, height)
        if squarefree_kernel(v) != 1:
            return v


def random_poly(rng, field, max_degree, height=50, monic=False, min_degree=0,
                prime_subfield=False):
    """Nonzero polynomial with degree in [min_degree, max_degree]; over a
    finite field the coefficients are drawn from all of it, or from its
    prime subfield only."""
    deg = rng.randint(min_degree, max_degree)
    if field.finite and prime_subfield:
        values = [field.from_int(n) for n in range(field.char)]
    elif field.finite:
        values = list(field.elements())
    while True:
        if field.finite:
            coeffs = [rng.choice(values) for _ in range(deg + 1)]
        else:
            coeffs = [Fraction(rng.randint(-height, height)) for _ in range(deg + 1)]
        if monic:
            coeffs[-1] = field.one
        f = Poly(field, coeffs)
        if not f.is_zero and f.degree == deg:
            return f


def random_entry(rng, field, max_degree, height=50, prime_subfield=False):
    """Nonzero rational function; half the time a plain polynomial."""
    num = random_poly(rng, field, max_degree, height, prime_subfield=prime_subfield)
    if rng.random() < 0.5:
        return RationalFunction(num)
    den = random_poly(
        rng, field, max(0, max_degree - num.degree), height, prime_subfield=prime_subfield
    )
    return RationalFunction(num, den)


def random_class(rng, base, p, max_symbols, max_degree, height=50, prime_subfield=False):
    n = rng.randint(1, max_symbols)
    pairs = [
        (
            random_entry(rng, base.field, max_degree, height, prime_subfield),
            random_entry(rng, base.field, max_degree, height, prime_subfield),
        )
        for _ in range(n)
    ]
    return BrauerClass.make(base, p, pairs)
