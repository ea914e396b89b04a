"""Verdict ladder and candidate enumeration.

The enumeration count is checked against a brute-force reciprocity
filter (see oracle_candidate_count in _oracles: Frobenius conjugate
norms and an enumerated p-th power set, nothing shared with the
corestriction shortcut under test).
"""

import random
from fractions import Fraction

import pytest

from brauercalc.brauer import BrauerClass, ramification_divisor
from brauercalc.distinguish import (
    BY_RAMIFICATION_FIELD,
    BY_SPECIALIZATION,
    CANDIDATE_EQUIVALENT,
    EQUAL,
    compare_ramification_fields,
    distinguish,
    enumerate_candidates,
    uniqueness_report,
)
from brauercalc.errors import ScopeError
from brauercalc.points import ClosedPoint, Q_BASE
from brauercalc.poly import Poly, QQ

from _gen import F7, F13
from _oracles import oracle_candidate_count

T = Poly.gen(QQ)


def q_poly(*coeffs):
    return Poly.from_ints(QQ, list(coeffs))


def test_enumerate_frozen_worked_example():
    t7 = Poly.gen(F7.field)
    a = BrauerClass.make(F7, 3, [(3, t7)])
    cand = enumerate_candidates(a)
    assert cand.bound == 4
    assert cand.size == 2
    assert {seq.exponents for seq in cand.sequences} == {(1, 1), (2, 2)}
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
    assert cand.sequences[0].exponents == ()
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
    assert v.certificate.mismatch


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
    with pytest.raises(ValueError):
        uniqueness_report(a, [b], sweep=-1)


def test_compare_fields_table():
    a = BrauerClass.make(Q_BASE, 2, [(-1, T)])
    b = BrauerClass.make(Q_BASE, 2, [(-2, T)])
    rows = compare_ramification_fields(a, b)
    assert all(row.left_ramified and row.right_ramified for row in rows)
    assert all(row.mismatch for row in rows)
    same = compare_ramification_fields(a, a)
    assert all(not row.mismatch for row in same)


def test_uniqueness_report():
    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    comparisons = [
        BrauerClass.make(Q_BASE, 2, [(20, T)]),
        BrauerClass.make(Q_BASE, 2, [(3, T)]),
        BrauerClass.make(Q_BASE, 2, [(5, T), (-1, -1)]),
    ]
    rep = uniqueness_report(a, comparisons)
    outcomes = [v.outcome for _, v in rep.rows]
    assert outcomes == [EQUAL, BY_RAMIFICATION_FIELD, BY_SPECIALIZATION]
    assert rep.all_certified
    assert "theorem" in rep.note
    starved = uniqueness_report(a, comparisons[2:], sweep=0)
    assert not starved.all_certified
    with pytest.raises(ScopeError):
        uniqueness_report(
            BrauerClass.make(F7, 2, [(3, Poly.gen(F7.field))]),
            [],
        )


def test_distinguish_rejects_mismatched_settings():
    a = BrauerClass.make(Q_BASE, 2, [(5, T)])
    b = BrauerClass.make(F7, 2, [(3, Poly.gen(F7.field))])
    with pytest.raises(ValueError):
        distinguish(a, b)
