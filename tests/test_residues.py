"""Residue classes and p-th power tests in residue fields.

The number-field square decision is checked two independent ways:
positives must hand back an explicit square root that squares to the
input, and negatives must be confirmed by a reduction argument (a
prime l where the minimal polynomial has a root and the image of the
element is a quadratic nonresidue mod l).
"""

import random
import sys
from fractions import Fraction

import pytest

from brauercalc import fields, residues
from brauercalc import poly as poly_module
from brauercalc.brauer import (
    BrauerClass,
    compare_classes,
    divisor_reciprocity,
    ramification_divisor,
    ramification_points,
    residue_at,
)
from brauercalc.distinguish import (
    BY_RAMIFICATION_FIELD,
    CANDIDATE_EQUIVALENT,
    EQUAL,
    distinguish,
    enumerate_candidates,
)
from brauercalc.errors import ScopeError
from brauercalc.factoring import is_irreducible
from brauercalc.fields import (
    GF,
    QuotientField,
    discrete_log,
    multiplicative_generator,
    rational_is_square,
)
from brauercalc.points import ClosedPoint, FiniteBase, Q_BASE, residue_field, sorted_points
from brauercalc.poly import Poly, QQ, RationalFunction
from brauercalc.residues import (
    ResidueClass,
    corestriction_exponent,
    generator_power,
    is_pth_power,
    nf_is_square,
    nf_sqrt,
    norm_to_base,
)

import _oracles
from _gen import random_poly
from _oracles import same_kummer_extension

PI_LIST = [
    Poly.from_ints(QQ, [-2, 0, 1]),  # t^2 - 2
    Poly.from_ints(QQ, [1, 0, 1]),  # t^2 + 1
    Poly.from_ints(QQ, [1, 1, 1]),  # t^2 + t + 1
    Poly.from_ints(QQ, [-2, 0, 0, 1]),  # t^3 - 2
    Poly.from_ints(QQ, [3, -1, 0, 0, 1]),  # t^4 - t + 3
]


def oracle_nonsquare_mod_l(kappa, e):
    """True means e is certainly not a square in kappa (one-sided).

    Looks for a prime l and a root r of the modulus mod l such that the
    image of e under t -> r is a nonresidue mod l; a square would map
    to a residue under every such reduction.
    """
    pi = kappa.modulus
    rep = kappa.to_poly(e)
    for l in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        denoms = [c.denominator for c in list(pi.coeffs) + list(rep.coeffs)]
        if any(d % l == 0 for d in denoms):
            continue
        field = GF(l)
        pil = Poly(field, [field.from_int(c.numerator * pow(c.denominator, -1, l)) for c in pi.coeffs])
        repl = Poly(field, [field.from_int(c.numerator * pow(c.denominator, -1, l)) for c in rep.coeffs])
        for r in range(l):
            if not pil.evaluate(field.from_int(r)):
                img = repl.evaluate(field.from_int(r))
                if not img:
                    continue
                if pow(img.rep, (l - 1) // 2, l) == l - 1:
                    return True
    return False


def random_nf_elem(rng, kappa, height=6):
    while True:
        e = kappa.from_poly(random_poly(rng, QQ, kappa.degree - 1, height))
        if e:
            return e


def test_nf_square_positive_certified_by_root():
    rng = random.Random(41)
    for pi in PI_LIST:
        kappa = QuotientField(QQ, pi)
        for _ in range(8):
            s = random_nf_elem(rng, kappa)
            e = s * s
            assert nf_is_square(kappa, e)
            r = nf_sqrt(kappa, e)
            assert r is not None
            assert r * r == e


def test_nf_square_negative_matches_reduction_oracle():
    rng = random.Random(42)
    checked = 0
    for pi in PI_LIST:
        kappa = QuotientField(QQ, pi)
        tried = 0
        while tried < 6:
            e = random_nf_elem(rng, kappa)
            if not oracle_nonsquare_mod_l(kappa, e):
                continue
            tried += 1
            checked += 1
            assert not nf_is_square(kappa, e)
            assert nf_sqrt(kappa, e) is None
    assert checked >= 20


def test_nf_square_known_values():
    k2 = QuotientField(QQ, Poly.from_ints(QQ, [-2, 0, 1]))
    theta = k2.gen_elem()
    # 3 + 2*sqrt(2) = (1 + sqrt(2))^2
    e = k2.from_int(3) + theta * 2
    assert nf_is_square(k2, e)
    r = nf_sqrt(k2, e)
    assert r * r == e
    # 2 is a square in Q(sqrt(2)), 3 is not
    assert nf_is_square(k2, k2.from_int(2))
    assert not nf_is_square(k2, k2.from_int(3))
    ki = QuotientField(QQ, Poly.from_ints(QQ, [1, 0, 1]))
    # -1 = i^2 is a square in Q(i); 2i = (1+i)^2
    assert nf_is_square(ki, ki.from_int(-1))
    assert nf_is_square(ki, ki.gen_elem() * 2)
    assert not nf_is_square(ki, ki.from_int(2))


def _norm_oracle_is_square(kappa, e):
    """The norm-polynomial decision (Trager), which higher degrees still use."""
    _, factors = residues._split_norm(kappa, e)
    return len(factors) > 1


def test_norm_shift_sweep_is_bounded(monkeypatch):
    # for a rational e the unshifted norm polynomial is (X^2 - e)^3, with
    # every root repeated, so a one-shift budget runs out
    kappa = QuotientField(QQ, Poly.from_ints(QQ, [-2, 0, 0, 1]))
    e = kappa.from_int(3)
    lam, factors = residues._split_norm(kappa, e)
    assert lam != 0 and len(factors) == 1
    monkeypatch.setattr(residues, "_NORM_SHIFTS", 1)
    with pytest.raises(ScopeError, match="first 1 shifts"):
        residues._split_norm(kappa, e)


def _random_quadratic_field(rng):
    while True:
        b = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
        c = Fraction(rng.randint(-12, 12), rng.randint(1, 5))
        if not rational_is_square(b * b - 4 * c):
            return QuotientField(QQ, Poly(QQ, [c, b, Fraction(1)])), b * b - 4 * c


def test_quadratic_sqrt_matches_norm_oracle():
    rng = random.Random(43)
    answers = {}
    for _ in range(30):
        kappa, disc = _random_quadratic_field(rng)
        s = random_nf_elem(rng, kappa)
        w = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        k = rng.choice([1, -1, 2, 3, -5, 6])
        cases = [
            ("square", s * s),
            ("random", random_nf_elem(rng, kappa)),
            ("disc_times_square", kappa.embed(disc * w * w)),  # root w*sqrt(D)
            ("rational", kappa.embed(k * w * w)),  # Y = 0
        ]
        for kind, e in cases:
            expected = _norm_oracle_is_square(kappa, e)
            root = nf_sqrt(kappa, e)
            assert (root is not None) == expected, (kind, kappa.modulus, e)
            assert nf_is_square(kappa, e) == expected
            if root is not None:
                assert root * root == e
            answers[kind, expected] = answers.get((kind, expected), 0) + 1
    assert answers["square", True] == answers["disc_times_square", True] == 30
    assert answers.get(("random", False), 0) >= 20
    assert answers.get(("rational", True), 0) >= 3
    assert answers.get(("rational", False), 0) >= 3


def test_higher_degree_square_test_matches_norm_oracle():
    # nf_is_square answers through nf_sqrt at every degree; the decision
    # must match the norm test plus the norm-polynomial factor count
    rng = random.Random(44)
    fields = [QuotientField(QQ, pi) for pi in PI_LIST if pi.degree >= 3]
    fields.append(QuotientField(QQ, Poly.from_ints(QQ, [1, 0, 0, 0, 1])))  # t^4 + 1
    answers = {}
    for kappa in fields:
        for _ in range(4):
            k = rng.choice([2, 3, -1, 5, -7])
            cases = [
                random_nf_elem(rng, kappa) ** 2,
                random_nf_elem(rng, kappa),
                kappa.embed(Fraction(k)),  # a rational: square norm at degree 4
            ]
            for e in cases:
                norm_square = rational_is_square(kappa.norm(e))
                expected = norm_square and _norm_oracle_is_square(kappa, e)
                root = nf_sqrt(kappa, e)
                assert nf_is_square(kappa, e) == expected == (root is not None)
                if root is not None:
                    assert root * root == e
                answers[expected] = answers.get(expected, 0) + 1
    assert answers[True] >= 12 and answers[False] >= 12


def test_higher_degree_square_test_matches_sympy():
    """nf_is_square in fields Q[t]/(pi) of degree 3 and 4 against sympy's
    factorization of X^2 - e over Q(theta), theta a root of pi: squares,
    random elements and e = 3t, on t^3 - 3 (where 3t = t^4) and on
    seeded pi."""
    sympy = pytest.importorskip("sympy")
    t, X = sympy.symbols("t X")
    rng = random.Random(45)
    pis, answers = [Poly.from_ints(QQ, [-3, 0, 0, 1])], {}
    while len(pis) < 9:
        pi = random_poly(rng, QQ, 4, height=5, monic=True, min_degree=3)
        if is_irreducible(pi):
            pis.append(pi)
    for pi in pis:
        kappa = QuotientField(QQ, pi)
        theta = sympy.CRootOf(sum(int(c) * t**i for i, c in enumerate(pi.coeffs)), 0)
        K = sympy.QQ.algebraic_field(theta)
        assert K.mod.degree() == pi.degree  # pi is the minimal polynomial
        cases = (("square", random_nf_elem(rng, kappa) ** 2),
                 ("random", random_nf_elem(rng, kappa)),
                 ("3t", kappa.gen_elem() * 3))
        for kind, e in cases:
            # K's elements are coefficient lists in theta, highest first
            ek = K([sympy.QQ(c.numerator, c.denominator)
                    for c in reversed(kappa.to_poly(e).coeffs)])
            _, factors = sympy.Poly([K.one, K.zero, -ek], X, domain=K).factor_list()
            expected = any(g.degree() == 1 for g, _ in factors)
            assert nf_is_square(kappa, e) == expected, (pi, kind)
            answers[kind, expected] = answers.get((kind, expected), 0) + 1
    assert {pi.degree for pi in pis} == {3, 4}
    assert answers["square", True] == 9 and answers.get(("random", False), 0) >= 6
    assert answers["3t", True] >= 1 and answers["3t", False] >= 6


def _seeded_number_fields(rng, n):
    """n fields Q[t]/(pi), pi monic irreducible of degree 3 to 6."""
    out = []
    while len(out) < n:
        pi = random_poly(rng, QQ, 6, height=5, monic=True, min_degree=3)
        if is_irreducible(pi):
            out.append(QuotientField(QQ, pi))
    return out


def _forbid_number_field_polys(monkeypatch):
    """Building a Poly, or taking poly_gcd, over a field that is neither QQ
    nor finite raises."""
    def allowed(field):
        if field is not QQ and not field.finite:
            raise AssertionError(f"a polynomial over {field}")

    init, gcd = Poly.__init__, residues.poly_gcd

    def guarded_init(self, field, coeffs):
        allowed(field)
        init(self, field, coeffs)

    def guarded_gcd(f, g):
        allowed(f.field)
        allowed(g.field)
        return gcd(f, g)

    monkeypatch.setattr(Poly, "__init__", guarded_init)
    for module in (residues, poly_module):
        monkeypatch.setattr(module, "poly_gcd", guarded_gcd)


def test_nf_sqrt_reads_the_root_off_kappa_y(monkeypatch):
    """On 150 seeded fields of degree 3 to 6: nf_sqrt(s^2) is s or -s, an
    element whose norm is no rational square has no root, and k*s^2 with k
    rational (a square norm at even degree) is a square exactly when the
    squarefree norm polynomial is reducible (Trager).  No polynomial over
    the number field is built, and no gcd is taken over it."""
    rng = random.Random(4201)
    kappas = _seeded_number_fields(rng, 150)
    cases = []
    for kappa in kappas:
        s = random_nf_elem(rng, kappa)
        odd = random_nf_elem(rng, kappa)
        while rational_is_square(kappa.norm(odd)):
            odd = random_nf_elem(rng, kappa)
        twisted = s * s * rng.choice([-1, 2, 3, -3, 5])
        expected = len(residues._split_norm(kappa, twisted)[1]) > 1
        cases.append((kappa, s, odd, twisted, expected))
    answers = {}
    with monkeypatch.context() as m:
        _forbid_number_field_polys(m)
        for kappa, s, odd, twisted, expected in cases:
            assert nf_sqrt(kappa, s * s) in (s, -s)
            assert nf_sqrt(kappa, odd) is None
            root = nf_sqrt(kappa, twisted)
            assert (root is not None) == expected, (kappa.modulus, twisted)
            assert root is None or root * root == twisted
            key = kappa.degree, rational_is_square(kappa.norm(twisted)), expected
            answers[key] = answers.get(key, 0) + 1
    assert {d for d, _, _ in answers} == {3, 4, 5, 6}
    assert sum(n for (_, norm, yes), n in answers.items() if norm and not yes) >= 20


def test_nf_sqrt_on_seeded_fields_matches_sympy(monkeypatch):
    """The yes/no of nf_sqrt on 150 seeded fields of degree 3 to 6 matches
    sympy's factorization of y^2 - e over Q(theta), with the route guard on."""
    sympy = pytest.importorskip("sympy")
    t, y = sympy.symbols("t y")
    rng = random.Random(4202)
    answers = {}
    for n, kappa in enumerate(_seeded_number_fields(rng, 150)):
        pi = kappa.modulus
        theta = sympy.CRootOf(sum(int(c) * t**i for i, c in enumerate(pi.coeffs)), 0)
        K = sympy.QQ.algebraic_field(theta)
        s = random_nf_elem(rng, kappa)
        # a square, a random element and a rational multiple of a square, in turn
        e = (s * s, s, s * s * rng.choice([-1, 2, 3]))[n % 3]
        ek = K([sympy.QQ(c.numerator, c.denominator) for c in reversed(kappa.to_poly(e).coeffs)])
        _, factors = sympy.Poly([K.one, K.zero, -ek], y, domain=K).factor_list()
        expected = any(g.degree() == 1 for g, _ in factors)
        with monkeypatch.context() as m:
            _forbid_number_field_polys(m)
            assert (nf_sqrt(kappa, e) is not None) == expected, (pi, e)
        answers[expected] = answers.get(expected, 0) + 1
    assert answers[True] >= 50 and answers[False] >= 80


def test_quadratic_square_test_never_factors(monkeypatch):
    def no_factoring(f):
        raise AssertionError("factor_over_Q called for a quadratic residue field")

    monkeypatch.setattr(residues, "factor_over_Q", no_factoring)
    k2 = QuotientField(QQ, Poly.from_ints(QQ, [-2, 0, 1]))
    theta = k2.gen_elem()
    # 3 has square norm 9 but is no square: the norm alone cannot decide it
    for e, square in ((k2.from_int(3) + theta * 2, True), (k2.from_int(2), True),
                      (k2.from_int(3), False), (theta + 1, False), (k2.zero, True)):
        assert nf_is_square(k2, e) == square
        root = nf_sqrt(k2, e)
        assert (root is not None) == square
        if square:
            assert root * root == e


def test_is_pth_power_dispatch():
    assert is_pth_power(QQ, Fraction(9, 4), 2)
    assert not is_pth_power(QQ, Fraction(-9, 4), 2)
    f13 = GF(13)
    g = multiplicative_generator(f13)
    assert is_pth_power(f13, g**3, 3)
    assert not is_pth_power(f13, g, 3)
    with pytest.raises(ScopeError):
        kappa = QuotientField(QQ, Poly.from_ints(QQ, [-2, 0, 1]))
        is_pth_power(kappa, kappa.one, 3)


def test_same_kummer_extension_rational():
    # 2 and 8 generate the same quadratic extension; 2 and 3 do not
    assert same_kummer_extension(QQ, Fraction(2), Fraction(8), 2)
    assert not same_kummer_extension(QQ, Fraction(2), Fraction(3), 2)
    # the trivial class only pairs with itself
    assert same_kummer_extension(QQ, Fraction(4), Fraction(9), 2)
    assert not same_kummer_extension(QQ, Fraction(4), Fraction(3), 2)
    # -2 vs 2: different fields even though the product is a nonsquare times -1
    assert not same_kummer_extension(QQ, Fraction(-2), Fraction(2), 2)


def test_same_kummer_extension_finite():
    # all nontrivial classes of F_q*/squares cut out the unique quadratic ext
    f7 = GF(7)
    g = multiplicative_generator(f7)
    assert same_kummer_extension(f7, g, g**3, 2)
    assert not same_kummer_extension(f7, g, g**2, 2)
    # p = 3 over F_13: two distinct nontrivial classes, same cubic extension
    f13 = GF(13)
    h = multiplicative_generator(f13)
    assert same_kummer_extension(f13, h, h**2, 3)
    assert not same_kummer_extension(f13, h, h**3, 3)



def _three_test_rule(field, r1, r2, p):
    """The rule same_kummer_extension replaced: both p-th powers, else a
    finite field's unique extension, else for p = 2 a square product."""
    t1, t2 = is_pth_power(field, r1, p), is_pth_power(field, r2, p)
    if t1 or t2:
        return t1 and t2
    if field is not QQ and field.finite:
        return True
    return is_pth_power(field, r1 * r2, p)


def test_same_kummer_extension_matches_three_test_rule(monkeypatch):
    rng = random.Random(1011)
    quadratic, cubic = (QuotientField(QQ, pi) for pi in PI_LIST[1:4:2])
    f7 = GF(7)
    units = {
        QQ: lambda: Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 5)),
        quadratic: lambda: random_nf_elem(rng, quadratic),
        cubic: lambda: random_nf_elem(rng, cubic, height=3),
        f7: lambda: f7.from_int(rng.randint(1, 6)),
    }
    tests = []

    def counting(field, value, p):
        tests.append(field)
        return is_pth_power(field, value, p)

    monkeypatch.setattr(_oracles, "is_pth_power", counting)
    answers = set()
    for field, p in ((QQ, 2), (quadratic, 2), (cubic, 2), (f7, 2), (f7, 3)):
        for _ in range(12 if field is cubic else 40):
            r1 = units[field]()
            # a p-th power multiple of r1, a p-th power, or an unrelated unit
            r2 = rng.choice([r1 * units[field]() ** p, units[field]() ** p, units[field]()])
            want = _three_test_rule(field, r1, r2, p)
            tests.clear()
            assert same_kummer_extension(field, r1, r2, p) == want
            if field is QQ or not field.finite:
                assert len(tests) == 1
            answers.add((field, p, want))
    assert len(answers) == 10

def test_residue_class_basics():
    pt = ClosedPoint.rational(Q_BASE, Fraction(0))
    rc = ResidueClass(pt, Fraction(18), 2)
    assert not rc.is_trivial()
    assert rc.canonical_value() == 2
    assert rc.field_label() == "Q(sqrt(2))"
    assert is_pth_power(QQ, rc.value / Fraction(2), 2)
    assert not is_pth_power(QQ, rc.value / Fraction(3), 2)
    triv = ResidueClass(pt, Fraction(9), 2)
    assert triv.is_trivial()
    assert triv.field_label() == "Q"
    with pytest.raises(ValueError):
        ResidueClass(pt, Fraction(0), 2)


def test_residue_class_remembers_triviality(monkeypatch):
    calls = []
    original = residues.is_pth_power

    def counting(field, value, p):
        calls.append(value)
        return original(field, value, p)

    monkeypatch.setattr(residues, "is_pth_power", counting)
    pt = ClosedPoint.rational(FiniteBase(7), 2)
    rc = ResidueClass(pt, GF(7).from_int(3), 2)
    assert not rc.is_trivial()
    assert rc.field_label() == "F49"
    assert len(calls) == 1
    assert rc == ResidueClass(pt, GF(7).from_int(3), 2)
    assert hash(rc) == hash(ResidueClass(pt, GF(7).from_int(3), 2))


def test_residue_class_finite_canonical():
    base = FiniteBase(7)
    pt = ClosedPoint.rational(base, 2)
    g = multiplicative_generator(GF(7))
    rc = ResidueClass(pt, g**5, 2)
    # canonical value is g^(dlog mod 2)
    assert rc.canonical_value() == g
    assert rc.field_label() == "F49"


def test_corestriction_exponent_degree_two():
    base = FiniteBase(7)
    pi = Poly.from_ints(GF(7), [1, 0, 1])  # t^2 + 1, irreducible mod 7
    pt = ClosedPoint.finite(base, pi)
    kappa = residue_field(pt)
    gen = multiplicative_generator(kappa)
    n = norm_to_base(pt, gen)
    # the norm of a generator generates F_7* so its dlog is odd
    assert corestriction_exponent(pt, gen, 2) == 1
    assert kappa.embed(n) == gen ** (1 + 7)
    with pytest.raises(ScopeError):
        corestriction_exponent(ClosedPoint.rational(Q_BASE, Fraction(0)), Fraction(2), 2)


def test_field_label_degree_two_number_field():
    pt = ClosedPoint.finite(Q_BASE, Poly.from_ints(QQ, [-2, 0, 1]))
    kappa = residue_field(pt)
    rc = ResidueClass(pt, kappa.from_int(3), 2)
    assert rc.field_label() == "Q(sqrt(2))(sqrt(3))"
    triv = ResidueClass(pt, kappa.from_int(2), 2)  # 2 = theta^2
    assert triv.field_label() == "Q(sqrt(2))"


# ---------------------------------------------------------------------------
# every F_q residue decision reads the norm

def _irreducible(rng, field, degree):
    while True:
        f = random_poly(rng, field, degree, monic=True, min_degree=degree)
        if is_irreducible(f):
            return f


def _norm_route_classes(rng, base, p, count):
    """Classes of one or two symbols (f, g): f a monic irreducible of degree
    1-4, g a constant or a monic irreducible of degree 1-3."""
    field = base.field
    out = []
    for _ in range(count):
        pairs = []
        for _ in range(rng.randint(1, 2)):
            f = _irreducible(rng, field, rng.randint(1, 4))
            g = (Poly(field, [field.element_at(rng.randrange(1, field.order))])
                 if rng.random() < 0.3 else _irreducible(rng, field, rng.randint(1, 3)))
            pairs.append((RationalFunction(f), RationalFunction(g)))
        out.append(BrauerClass.make(base, p, pairs))
    return out


def _kappa_is_pth_power(x, u, p):
    """The kappa-side reference: u^((q^d - 1)/p) = 1 in kappa(x)."""
    return is_pth_power(residue_field(x), u, p)


def _kappa_canonical(x, u, p):
    """g_kappa^(dlog u mod p): the log by walking powers of g_kappa in fields
    of at most 400 elements, else by its projection onto the p-part in kappa."""
    kappa = residue_field(x)
    g = multiplicative_generator(kappa)
    k = discrete_log(u) if kappa.order <= 400 else fields.pth_power_exponent(u, p)
    return g ** (k % p)


def _forbid_powers_in_kappa(monkeypatch, q):
    """Every binding of is_pth_power_finite and pth_power_exponent in the
    library raises on an element of a field larger than F_q."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "brauercalc"]
    for name in ("is_pth_power_finite", "pth_power_exponent"):
        real = getattr(fields, name)

        def guarded(e, p, real=real, name=name):
            if e.field.order > q:
                raise AssertionError(f"{name} took a power in {e.field}")
            return real(e, p)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, guarded)


def test_fq_residue_decisions_read_the_norm(monkeypatch):
    """Divisors, labels, reciprocity, comparisons, verdicts and candidate
    sets over F_7, F_9, F_13 and F_49 agree with the kappa-side reference
    (p-th powers and discrete logs in kappa(x)), computed first, when no
    library route may take a power in a residue field of degree >= 2."""
    rng = random.Random(3811)
    outcomes, degrees = set(), set()
    for q, p in ((7, 2), (7, 3), (9, 2), (13, 3), (49, 3)):
        base = FiniteBase(q)
        classes = _norm_route_classes(rng, base, p, 5)
        pairs = list(zip(classes, classes[1:]))
        pairs += [(c, c.scale(2 if p == 3 else 1) + classes[0] + classes[0].scale(p - 1))
                  for c in classes[1:3]]
        pairs += [(c, c.scale(p - 1)) for c in classes[:2]] + [(classes[0], classes[0])]
        # the reference, with every route open
        residues_of = {}
        for c in classes + [c for pair in pairs for c in pair]:
            for x in ramification_points(c):
                residues_of[c, x] = residue_at(c, x).value
        ref_trivial = {key: _kappa_is_pth_power(key[1], u, p) for key, u in residues_of.items()}
        ref_canon = {(c, x): _kappa_canonical(x, residues_of[c, x], p)
                     for c in classes for x in ramification_points(c) if not ref_trivial[c, x]}
        ref_pairs = []
        for a, b in pairs:
            union = sorted_points(set(ramification_points(a)) | set(ramification_points(b)))
            one_side = [x for x in union
                        if ref_trivial.get((a, x), True) != ref_trivial.get((b, x), True)]
            ratio = [x for x in union if not _kappa_is_pth_power(
                x, residue_at(a, x).value / residue_at(b, x).value, p)]
            ref_pairs.append((ratio[0] if ratio else None, one_side[0] if one_side else None))
        with monkeypatch.context() as m:
            _forbid_powers_in_kappa(m, q)
            for c in classes:
                div = ramification_divisor(c)
                assert divisor_reciprocity(div)
                assert div.support() == tuple(x for x in ramification_points(c)
                                              if not ref_trivial[c, x])
                assert {x: rc.canonical_value() for x, rc in div.entries} == {
                    x: ref_canon[c, x] for x in div.support()}
                degrees.update(x.degree for x in div.support() if not x.is_infinity)
            for (a, b), (first, one_side) in zip(pairs, ref_pairs):
                cmp = compare_classes(a, b)
                assert (cmp.equal, cmp.point) == (first is None, first)
                verdict = distinguish(a, b)
                want = (EQUAL if first is None else
                        BY_RAMIFICATION_FIELD if one_side else CANDIDATE_EQUIVALENT)
                assert (verdict.outcome, verdict.point) == (want, one_side)
                outcomes.add(want)
            cands = [enumerate_candidates(c) for c in classes[:3]]
        # every realized survivor has the targeted residues, kappa-side
        for c, cand in zip(classes, cands):
            div = dict(ramification_divisor(c).entries)
            for tup, built in zip(cand.sequences, cand.classes):
                targets = {x: div[x].value ** i for x, i in zip(cand.support, tup)}
                for x in set(ramification_points(built)) | set(targets):
                    u = residue_at(built, x).value
                    want = targets.get(x, residue_field(x).one)
                    assert _kappa_is_pth_power(x, u / want, p), (q, p, x)
    assert outcomes == {EQUAL, BY_RAMIFICATION_FIELD, CANDIDATE_EQUIVALENT}
    assert degrees == {1, 2, 3, 4}


@pytest.mark.parametrize("q, p", [(7, 2), (7, 3), (9, 2), (13, 2), (13, 3), (49, 2), (49, 3)])
def test_generator_power_has_the_normed_exponent_asked_for(q, p):
    """At seeded points of degree 1 to 4 and at infinity, for every k, the
    unit has normed exponent k and is the g^m with m k(g) = k, the
    reference formula kept here."""
    base, rng = FiniteBase(q), random.Random(4306 + q + p)
    points = [ClosedPoint.infinity(base)]
    for d in range(1, 5):
        while True:
            f = random_poly(rng, base.field, d, monic=True, min_degree=d)
            if is_irreducible(f):
                points.append(ClosedPoint.finite(base, f))
                break
    for x in points:
        g = multiplicative_generator(residue_field(x))
        for k in range(p):
            u = generator_power(x, k, p)
            assert corestriction_exponent(x, u, p) == k, (x, k)
            want = g ** (k * pow(corestriction_exponent(x, g, p), -1, p) % p) if k else g.field.one
            assert u == want, (x, k)
