"""Property tests of residues and equality, run when hypothesis is installed."""

import pytest

from brauercalc.brauer import (
    BrauerClass,
    classes_equal,
    ramification_points,
    reciprocity_check,
    residue_at,
)
from brauercalc.points import FiniteBase, Q_BASE
from brauercalc.poly import Poly, RationalFunction

from _oracles import residue_value_oracle

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SETTINGS = ((Q_BASE, 2), (FiniteBase(7), 2), (FiniteBase(7), 3), (FiniteBase(9), 2))
PROPERTY = hypothesis.settings(max_examples=25, deadline=None, database=None)


@st.composite
def classes(draw, base, p, max_symbols=2):
    """A sum of at most max_symbols symbols with entries of degree at most 2."""
    field = base.field
    if base.is_finite:
        coeff = st.sampled_from(list(field.elements()))
    else:
        coeff = st.integers(-9, 9).map(field.from_int)
    poly = st.lists(coeff, min_size=1, max_size=3).map(lambda cs: Poly(field, cs))
    entry = st.tuples(poly.filter(lambda f: not f.is_zero), poly.filter(lambda f: not f.is_zero))
    entry = entry.map(lambda nd: RationalFunction(*nd))
    return BrauerClass.make(base, p, draw(st.lists(st.tuples(entry, entry), max_size=max_symbols)))


@st.composite
def setting_and_classes(draw, count):
    base, p = draw(st.sampled_from(SETTINGS))
    return (base, p) + tuple(draw(classes(base, p)) for _ in range(count))


@PROPERTY
@hypothesis.given(setting_and_classes(2))
def test_residue_is_multiplicative(drawn):
    _, _, c1, c2 = drawn
    both = c1 + c2
    for x in ramification_points(both):
        r1, r2 = residue_at(c1, x).value, residue_at(c2, x).value
        assert residue_at(both, x).value == r1 * r2 == residue_value_oracle(both, x)


@PROPERTY
@hypothesis.given(setting_and_classes(1))
def test_reciprocity(drawn):
    assert reciprocity_check(drawn[2])


@PROPERTY
@hypothesis.given(setting_and_classes(2))
def test_adding_a_class_and_its_negative_changes_nothing(drawn):
    # with p = 2 this is a + s + s, sharing s's symbol objects twice
    _, p, a, s = drawn
    assert classes_equal(a, a + s + (s if p == 2 else s.scale(p - 1)))
