"""Verdict ladder and candidate enumeration.

The enumeration count is checked against a brute-force reciprocity
filter (see oracle_candidate_count in _oracles: Frobenius conjugate
norms and an enumerated p-th power set, nothing shared with the
corestriction shortcut under test).
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

from brauercalc import brauer, hilbert, report
from brauercalc.brauer import (
    BrauerClass,
    classes_equal,
    compare_classes,
    ramification_divisor,
    specialize,
)
from brauercalc.distinguish import (
    BY_RAMIFICATION_FIELD,
    BY_SPECIALIZATION,
    CANDIDATE_EQUIVALENT,
    EQUAL,
    FieldComparisonRow,
    SpecializationCertificate,
    Verdict,
    _separating_quadratic,
    distinguish,
    enumerate_candidates,
)
from brauercalc.errors import NotSymbolRegular, ScopeError
from brauercalc.hilbert import invariant_set
from brauercalc.parser import class_text
from brauercalc.points import ClosedPoint, FiniteBase, Q_BASE, sorted_points, sweep_values
from brauercalc.poly import Poly, QQ, RationalFunction

from _gen import F7, F13, nonzero_rational, random_class
from _oracles import (
    classes_equal_oracle,
    divisor_oracle,
    oracle_candidate_count,
    same_kummer_extension,
)

T = Poly.gen(QQ)


def q_poly(*coeffs):
    return Poly.from_ints(QQ, list(coeffs))


def test_enumerate_frozen_worked_example():
    t7 = Poly.gen(F7.field)
    a = BrauerClass.make(F7, 3, [(3, t7)])
    cand = enumerate_candidates(a)
    assert cand.bound == 4
    assert cand.size == 2
    assert set(cand.sequences) == {(1, 1), (2, 2)}
    shown = {
        tuple((pair[0], pair[1]) for pair in c.pairs()) for c in cand.classes
    }
    f = F7.field
    three = BrauerClass.make(F7, 3, [(3, t7)]).pairs()
    two = BrauerClass.make(F7, 3, [(2, t7)]).pairs()
    assert shown == {three, two}
    assert oracle_candidate_count(a) == 2


def test_enumerate_matches_oracle_various_supports():
    f = F7.field
    t7 = Poly.gen(f)
    cases = [
        BrauerClass.make(F7, 2, [(3, t7)]),
        BrauerClass.make(F7, 2, [(3, t7), (5, Poly.from_ints(f, [-1, 1]))]),
        BrauerClass.make(F7, 3, [(3, t7), (2, Poly.from_ints(f, [-1, 1]))]),
        BrauerClass.make(
            F13, 3, [(2, Poly.gen(F13.field)), (6, Poly.from_ints(F13.field, [-1, 1]))]
        ),
    ]
    for a in cases:
        cand = enumerate_candidates(a)
        assert cand.size == oracle_candidate_count(a)
        assert cand.size <= cand.bound
        assert len(cand.classes) == cand.size


def test_enumerate_realizes_across_higher_degree_point():
    # t^3 - 2 is irreducible over F_7 and p = 3 divides its degree, so the
    # realization must take the polynomial-representative route
    f = F7.field
    t7 = Poly.gen(f)
    pi = Poly.from_ints(f, [-2, 0, 0, 1])
    a = BrauerClass.make(F7, 3, [(t7, pi)])
    div = ramification_divisor(a)
    assert any(pt.degree == 3 for pt in div.support())
    cand = enumerate_candidates(a)
    assert cand.size == oracle_candidate_count(a)
    assert cand.size >= 1


def test_enumerate_trivial_class():
    a = BrauerClass.zero(F7, 3)
    cand = enumerate_candidates(a)
    assert cand.size == 1 and cand.bound == 1
    assert cand.sequences[0] == ()
    assert cand.classes[0].symbols == ()


def test_enumerate_needs_finite_base():
    with pytest.raises(ScopeError):
        enumerate_candidates(BrauerClass.make(Q_BASE, 2, [(5, T)]))


def test_distinguish_equal():
    a = BrauerClass.make(Q_BASE, 2, [(T, -1), (T, -1)])
    v = distinguish(a, BrauerClass.zero(Q_BASE, 2))
    assert v.outcome == EQUAL
    assert v.point is None and v.certificate is None


def test_distinguish_by_ramification_field():
    a = BrauerClass.make(Q_BASE, 2, [(-1, T)])
    b = BrauerClass.make(Q_BASE, 2, [(-2, T)])
    v = distinguish(a, b)
    assert v.outcome == BY_RAMIFICATION_FIELD
    assert v.point == ClosedPoint.finite(Q_BASE, T)
    assert v.certificate.left_label == "Q(sqrt(-1))"
    assert v.certificate.right_label == "Q(sqrt(-2))"


def test_distinguish_by_support_difference():
    f = F7.field
    t7 = Poly.gen(f)
    a = BrauerClass.make(F7, 2, [(3, t7)])
    b = BrauerClass.make(F7, 2, [(3, Poly.from_ints(f, [-1, 1]))])
    v = distinguish(a, b)
    assert v.outcome == BY_RAMIFICATION_FIELD
    assert v.certificate.left_label == "unramified" or (
        v.certificate.right_label == "unramified"
    )


def test_distinguish_by_specialization_one_trivial():
    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    b = BrauerClass.make(Q_BASE, 2, [(5, T), (-1, -1)])
    v = distinguish(a, b)
    assert v.outcome == BY_SPECIALIZATION
    cert = v.certificate
    assert cert.left_trivial != cert.right_trivial
    assert cert.discriminant is None
    assert cert.at == v.point


def test_distinguish_by_separating_quadratic():
    a = BrauerClass.make(Q_BASE, 2, [(5, T), (-1, -1)])
    b = BrauerClass.make(Q_BASE, 2, [(5, T), (3, 5)])
    v = distinguish(a, b)
    assert v.outcome == BY_SPECIALIZATION
    cert = v.certificate
    assert not cert.left_trivial and not cert.right_trivial
    assert cert.discriminant == Fraction(5)
    assert any("sqrt" in s for s in v.narrative)


def test_distinguish_finite_fallback_is_honest():
    t7 = Poly.gen(F7.field)
    a = BrauerClass.make(F7, 3, [(3, t7)])
    b = BrauerClass.make(F7, 3, [(2, t7)])
    v = distinguish(a, b)
    assert v.outcome == CANDIDATE_EQUIVALENT
    assert any("not claimed" in s for s in v.narrative)
    assert any("finite" in s for s in v.narrative)


def test_distinguish_sweep_budget():
    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    b = BrauerClass.make(Q_BASE, 2, [(5, T), (-1, -1)])
    v = distinguish(a, b, sweep=0)
    assert v.outcome == CANDIDATE_EQUIVALENT


def test_negative_sweep_budget_is_rejected():
    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    b = BrauerClass.make(Q_BASE, 2, [(5, T), (-1, -1)])
    with pytest.raises(ValueError):
        distinguish(a, b, sweep=-1)


def test_distinguish_rejects_mismatched_settings():
    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    b = BrauerClass.make(F7, 2, [(3, Poly.gen(F7.field))])
    with pytest.raises(ValueError):
        distinguish(a, b)


def _field_table(da, db):
    """Per-point (same extension, row) over both supports: the full table
    step 2 once built before reporting its first mismatch, with each
    point decided by same_kummer_extension, independently of the record."""
    rows, by_a, by_b = [], dict(da.entries), dict(db.entries)
    for pt in sorted_points(set(by_a) | set(by_b)):
        ra, rb = by_a.get(pt), by_b.get(pt)
        if ra is None or rb is None:
            same = False
        else:
            same = same_kummer_extension(ra.field, ra.value, rb.value, ra.p)
        row = FieldComparisonRow(
            pt,
            ra is not None,
            rb is not None,
            ra.field_label() if ra is not None else "unramified",
            rb.field_label() if rb is not None else "unramified",
        )
        rows.append((same, row))
    return tuple(rows)


def _table_reference(a, b):
    """Steps 1 and 2 over the full table: (verdict or None, steps so far)."""
    steps = ["compared ramification divisors and the constant part exactly"]
    cmp = compare_classes(a, b)
    if cmp.equal:
        return Verdict(EQUAL, (*steps, "classes are equal")), steps
    steps.append("compared residue extensions at every point of either support")
    for same, row in _field_table(ramification_divisor(a), ramification_divisor(b)):
        if not same:
            steps.append(
                f"extensions differ at {row.point}: "
                f"{row.left_label} vs {row.right_label}"
            )
            verdict = Verdict(
                BY_RAMIFICATION_FIELD, tuple(steps), point=row.point, certificate=row
            )
            return verdict, steps
    return None, steps


def _sweep_reference(a, b, sweep):
    """distinguish over Q with step 3 as a sweep over sweep_values, trying
    up to `sweep` points regular for both classes: the oracle that the
    single specialization at compare_classes' point must match."""
    verdict, steps = _table_reference(a, b)
    if verdict is not None:
        return verdict
    steps.append("swept symbol-regular rational points outside both supports")
    tried = 0
    for c in sweep_values(a.base):
        if tried >= sweep:
            break
        cv = a.base.field.coerce(c)
        try:
            pa, pb = specialize(a, cv), specialize(b, cv)
        except NotSymbolRegular:
            continue
        tried += 1
        sa, sb = invariant_set(pa), invariant_set(pb)
        ta, tb = not sa, not sb
        if ta != tb:
            steps.append(
                f"at t = {cv} exactly one specialization is trivial "
                f"(left: {ta}, right: {tb}), so the base field itself "
                "splits one class and not the other"
            )
            cert = SpecializationCertificate(cv, pa, pb, ta, tb)
            return Verdict(BY_SPECIALIZATION, tuple(steps), point=cv, certificate=cert)
        if not ta and set(sa) != set(sb):
            d = _separating_quadratic(pa, pb, sa, sb)
            steps.append(
                f"at t = {cv} both specializations are nontrivial with "
                f"different nonsplit places {list(sa)} vs {list(sb)}; "
                f"Q(sqrt({d})) splits exactly one of them"
            )
            cert = SpecializationCertificate(cv, pa, pb, False, False, d)
            return Verdict(BY_SPECIALIZATION, tuple(steps), point=cv, certificate=cert)
    steps.append(f"no separating point among the first {tried} swept")
    steps.append("no certificate found; equivalence is not claimed")
    return Verdict(CANDIDATE_EQUIVALENT, tuple(steps))


def _nonsplit_constant(rng):
    while True:
        x, y = nonzero_rational(rng, 12), nonzero_rational(rng, 12)
        if invariant_set([(x, y)]):
            return BrauerClass.make(Q_BASE, 2, [(x, y)])


def test_distinguish_matches_sweep_reference():
    rng = random.Random(1010)
    reached = Counter()
    for i in range(300):
        a = random_class(rng, Q_BASE, 2, 2, 2, height=9)
        s = random_class(rng, Q_BASE, 2, 1, 2, height=9)
        kind = i % 4
        if kind == 0:
            b = a + s + s
        elif kind == 1:
            b = a + _nonsplit_constant(rng)
        elif kind == 2:
            # s + s adds zeros and poles, so a alone has more regular points
            b = a + s + s + _nonsplit_constant(rng)
        else:
            b = random_class(rng, Q_BASE, 2, 2, 2, height=9)
        for sweep in (0, 1, 200):
            got = distinguish(a, b, sweep=sweep)
            assert got == _sweep_reference(a, b, sweep), (class_text(a), class_text(b))
            reached[got.outcome, sweep] += 1
    # every rung of the ladder is exercised, step 3 with both certificates
    assert reached[BY_SPECIALIZATION, 1] >= 50
    assert reached[CANDIDATE_EQUIVALENT, 0] == reached[BY_SPECIALIZATION, 200]
    assert min(reached[o, 200] for o in (EQUAL, BY_RAMIFICATION_FIELD)) >= 50


def test_distinguish_decides_the_constant_part_once(monkeypatch):
    """Guard against repeated passes over the constant part: over 30 Q ops
    no Poly.evaluate, no invariant_set, and local_invariants on each
    distinct specialized pair at most once per op."""
    rng = random.Random(1212)
    ops = []
    for i in range(30):
        a = random_class(rng, Q_BASE, 2, 2, 2, height=9)
        s = random_class(rng, Q_BASE, 2, 1, 2, height=9)
        b = (a + s + s, a + _nonsplit_constant(rng), s + s + _nonsplit_constant(rng) + a)[i % 3]
        ops.append((a, b))

    def refuse(name):
        def call(*args):
            raise AssertionError(f"{name} called from distinguish")
        return call

    calls = []
    true_invariants = hilbert.local_invariants

    def counted(pairs):
        calls.append(tuple(pairs))
        return true_invariants(pairs)

    monkeypatch.setattr(Poly, "evaluate", refuse("Poly.evaluate"))
    monkeypatch.setattr(hilbert, "invariant_set", refuse("invariant_set"))
    for module in (hilbert, brauer):
        monkeypatch.setattr(module, "local_invariants", counted)
    seen = []
    for a, b in ops:
        calls.clear()
        distinguish(a, b)
        seen.append(list(calls))
    monkeypatch.undo()
    decided = 0
    for (a, b), pairs_seen in zip(ops, seen):
        at = compare_classes(a, b).at
        if at is None:
            assert pairs_seen == []
            continue
        decided += 1
        distinct = set(specialize(a, at)) | set(specialize(b, at))
        assert Counter(pairs_seen).most_common(1)[0][1] == 1
        assert {pair for pairs in pairs_seen for pair in pairs} == distinct
        assert all(len(pairs) == 1 for pairs in pairs_seen)
    assert decided >= 20


def _unit_spread_class(rng, base, p, max_symbols, max_degree):
    """random_class, with each first entry over F_q scaled by a random unit.

    random_class already draws F_q coefficients from all of F_q, so the
    scaling reaches no residue class it could not.  A unit u in the first
    entry multiplies the residue at each zero or pole x of the second
    entry by the constant u^(v_x), and the seeded draws the tests below
    were checked on include these extra rng calls, so the scaling stays.
    """
    c = random_class(rng, base, p, max_symbols, max_degree, height=9)
    if not base.is_finite:
        return c
    f = base.field
    units = [RationalFunction.constant(f, e) for e in f.elements() if not e.is_zero]
    return BrauerClass.make(base, p, [(rng.choice(units) * x, y) for x, y in c.pairs()])


def test_distinguish_matches_field_table_reference():
    """Step 2 stops at the first mismatching point instead of building the
    whole table; every verdict the table decides must come out the same.
    Over odd p a twist of the same extension can come before a support
    difference, so the verdict point is then not compare_classes' point."""
    rng = random.Random(1111)
    twist_first = 0
    settings = ((Q_BASE, 2), (F7, 3), (F13, 3), (F7, 2), (FiniteBase(9), 2),
                (FiniteBase(49), 3))
    for base, p in settings:
        for i in range(60):
            a = _unit_spread_class(rng, base, p, 2, 2)
            s = _unit_spread_class(rng, base, p, 1, 1)
            kind = i % 3
            if kind == 0:
                b = _unit_spread_class(rng, base, p, 2, 2)
            elif kind == 1:
                # every residue of a is twisted, its extension kept
                b = a.scale(p - 1) + s
            else:
                b = a + s
            got = distinguish(a, b)
            want, _ = _table_reference(a, b)
            if want is None:
                assert got.outcome in (BY_SPECIALIZATION, CANDIDATE_EQUIVALENT)
            else:
                assert got == want, (base, class_text(a), class_text(b))
            if p > 2 and got.point is not None:
                twist_first += got.point != compare_classes(a, b).point
    assert twist_first >= 10


def test_finite_field_comparisons_build_no_divisor(monkeypatch):
    """Over F_7, F_13, F_9 and F_49, distinguish and the equal report read
    the compare_classes record alone: with ramification_divisor patched to
    raise, every verdict is the full-table reference computed before, and
    every equality answer the oracle's."""
    rng = random.Random(2701)
    settings = ((F7, 2), (F7, 3), (F13, 3), (FiniteBase(9), 2), (FiniteBase(49), 3))
    cases = []
    for base, p in settings:
        for i in range(16):
            a = _unit_spread_class(rng, base, p, 2, 2)
            s = _unit_spread_class(rng, base, p, 1, 1)
            b = (_unit_spread_class(rng, base, p, 2, 2), a.scale(p - 1) + s, a + s,
                 s + a)[i % 4]
            cases.append((a, b, _table_reference(a, b)[0], classes_equal_oracle(a, b)))

    def refuse(*args):
        raise AssertionError("a comparison built a ramification divisor")

    monkeypatch.setattr(brauer, "ramification_divisor", refuse)
    monkeypatch.setattr(report, "ramification_divisor", refuse)
    # the distinguish module's own binding, shadowed on the package by the function
    monkeypatch.setitem(distinguish.__globals__, "ramification_divisor", refuse)
    outcomes = Counter()
    for a, b, want, equal in cases:
        got = distinguish(a, b)
        assert got == want if want is not None else got.outcome == CANDIDATE_EQUIVALENT
        assert report.equal_outcome(a, b)["equal"] == classes_equal(a, b) == equal
        outcomes[a.base.q, got.outcome] += 1
    for base, _ in settings:
        assert outcomes[base.q, BY_RAMIFICATION_FIELD] >= 3
    assert sum(n for (_, outcome), n in outcomes.items() if outcome == EQUAL) >= 10


def _identity_sides(rng, base, p):
    """(name, lhs, rhs) for rewrites that hold in Br(k(t))[p], with f, g, h
    the entries of two random symbols: bilinearity, antisymmetry,
    absorbing a p-th power, and the Steinberg relations."""
    (f, g), = random_class(rng, base, p, 1, 2, height=9).pairs()
    (h, _), = random_class(rng, base, p, 1, 2, height=9).pairs()

    def cls(*pairs):
        return BrauerClass.make(base, p, pairs)

    sides = [
        ("bilinearity", cls((f, g * h)), cls((f, g), (f, h))),
        ("antisymmetry", cls((f, g)), cls((g, f)).scale(p - 1)),
        ("p-th power", cls((f, g * h**p)), cls((f, g))),
        ("steinberg -f", cls((f, -f)), BrauerClass.zero(base, p)),
    ]
    one_minus = RationalFunction.constant(base.field, base.field.one) - f
    if not one_minus.is_zero:
        sides.append(("steinberg 1 - f", cls((f, one_minus)), BrauerClass.zero(base, p)))
    return sides


IDENTITY_SETTINGS = ((Q_BASE, 2), (F7, 2), (F7, 3), (F13, 3), (FiniteBase(9), 2),
                     (FiniteBase(49), 3), (FiniteBase(11), 5), (FiniteBase(4), 3))


def test_symbol_identities_are_equal():
    """Bilinearity, antisymmetry, absorbing a p-th power and the Steinberg
    relations, rewritten so that no symbol cancels by value: each pair is
    equal under classes_equal and distinguish, after a walk over a
    nonempty net class."""
    rng = random.Random(2702)
    walked = Counter()
    for base, p in IDENTITY_SETTINGS:
        for _ in range(12):
            for name, lhs, rhs in _identity_sides(rng, base, p):
                assert classes_equal(lhs, rhs), (name, base, class_text(lhs), class_text(rhs))
                assert distinguish(lhs, rhs).outcome == EQUAL
                walked[name] += bool(compare_classes(lhs, rhs).net.symbols)
    assert min(walked.values()) >= 60 and len(walked) == 5


def test_a_symbol_ramified_off_the_support_is_distinguished():
    """a + s, for a symbol s with a point of its oracle divisor outside a's
    support, is distinguished from a by a residue field; over F_q at the
    first point of the oracle's symmetric difference of the supports."""
    rng = random.Random(2703)
    for base, p in IDENTITY_SETTINGS:
        found = 0
        while found < 6:
            a = _unit_spread_class(rng, base, p, 2, 2)
            s = _unit_spread_class(rng, base, p, 1, 1)
            supp_a = {x for x, _ in divisor_oracle(a)}
            if all(x in supp_a for x, _ in divisor_oracle(s)):
                continue
            found += 1
            supp_b = {x for x, _ in divisor_oracle(a + s)}
            got = distinguish(a, a + s)
            assert got.outcome == BY_RAMIFICATION_FIELD, (base, class_text(a), class_text(s))
            if base.is_finite:
                assert got.point == sorted_points(supp_a ^ supp_b)[0]
