"""The library's records, all built on errors.Record: value equality and
hashing over the fields, no assignment, the dataclass-style repr, None for
omitted trailing fields, the construction checks each record makes, and
memos kept outside equality.  Importing the CLI builds no dataclass."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from brauercalc.brauer import (
    BrauerClass,
    ClassComparison,
    RamificationDivisor,
    Symbol,
    compare_classes,
    residue_at,
)
from brauercalc.covers import KummerCoverDatum, Reparametrization, WitnessCheck, WitnessReport
from brauercalc.distinguish import (
    CandidateSet,
    FieldComparisonRow,
    SpecializationCertificate,
    Verdict,
)
from brauercalc.errors import Record
from brauercalc.fields import GF
from brauercalc.points import ClosedPoint, FiniteBase, Q_BASE, RationalBase
from brauercalc.poly import Poly, QQ, RationalFunction
from brauercalc.report import Report
from brauercalc.residues import ResidueClass

ROOT = Path(__file__).resolve().parent.parent
T = Poly.from_ints(QQ, [0, 1])


def _samples():
    """(record class, field values, how many trailing fields may be omitted)."""
    rf = RationalFunction(T + 1, T * T - 3)
    c1 = BrauerClass.make(Q_BASE, 2, [(T + 1, T - 2)])
    c2 = BrauerClass.make(Q_BASE, 2, [(3, T)])
    pt = ClosedPoint.rational(Q_BASE, 2)
    rc = ResidueClass(pt, Fraction(3), 2)
    cmp = compare_classes(c1, c2)
    return [
        (RationalBase, (), 0),
        (FiniteBase, (7,), 0),
        (ClosedPoint, (Q_BASE, T - 2), 1),
        (Symbol, (rf, T + 5), 1),
        (BrauerClass, (Q_BASE, 2, c1.symbols), 1),
        (RamificationDivisor, (Q_BASE, 2, ((pt, rc),)), 1),
        (ClassComparison, (c1, c2, cmp.net, cmp.point, cmp.residue), 2),
        (ResidueClass, (pt, Fraction(3), 2), 1),
        (Reparametrization, (rf,), 0),
        (KummerCoverDatum, ("splitting", Q_BASE, 2, rf, Fraction(5), Fraction(0), None,
                            None, (rf, rf)), 3),
        (WitnessCheck, ("fiber-root", True, "T = 0"), 1),
        (WitnessReport, ("full", (WitnessCheck("a", True, "b"),), ("note",)), 1),
        (FieldComparisonRow, (pt, True, False, "Q(sqrt(3))", "Q"), 1),
        (SpecializationCertificate, (Fraction(1), ((1, 2),), ((3, 5),), True, False, 5), 1),
        (Verdict, ("Equal", ("same",), pt, None), 2),
        (CandidateSet, ((pt,), ((1,),), (c1,), 1), 1),
        (Report, ("ram", {"class": "(t, 2)"}, {"divisor": []}), 1),
    ]


SAMPLES = _samples()
CUSTOM_REPR = {RationalBase: "Q", FiniteBase: "F7", ClosedPoint: "ClosedPoint(t - 2)"}


def test_every_record_is_sampled():
    assert {cls for cls, _, _ in SAMPLES} == set(Record.__subclasses__())
    assert len(SAMPLES) == 17


@pytest.mark.parametrize("cls, values, omit", SAMPLES, ids=[c.__name__ for c, _, _ in SAMPLES])
def test_record_is_an_immutable_value(cls, values, omit):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b and a is not b
    assert a == cls(**dict(zip(cls._fields, values)))
    assert tuple(getattr(a, name) for name in cls._fields) == values
    if cls is Report:  # dict fields: hashed only when asked, and then refused
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert a != object() and a != values
    for name in cls._fields + ("anything",):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            delattr(a, name)
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(a) == CUSTOM_REPR.get(cls, f"{cls.__name__}({fields})")
    if omit:
        short = cls(*values[:-omit])
        assert all(getattr(short, name) is None for name in cls._fields[-omit:])
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], unknown_field=1)
    if values:
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: values[0]})


def test_records_differ_when_a_field_differs():
    pt = ClosedPoint.rational(Q_BASE, 2)
    assert ResidueClass(pt, Fraction(3), 2) != ResidueClass(pt, Fraction(5), 2)
    assert FiniteBase(7) != FiniteBase(13) and Q_BASE == RationalBase()
    assert Verdict("Equal", ()) != Verdict("Equal", (), pt)
    assert hash(FiniteBase(7)) == hash(FiniteBase(7))


def test_construction_checks_still_raise():
    pt = ClosedPoint.rational(Q_BASE, 2)
    rf = RationalFunction(T + 1)
    with pytest.raises(ValueError, match="unit"):
        ResidueClass(pt, Fraction(0), 2)
    with pytest.raises(ValueError, match="non-constant"):
        Reparametrization(RationalFunction.constant(QQ, 4))
    with pytest.raises(ValueError, match="zero right-hand side"):
        KummerCoverDatum("unramified", Q_BASE, 2, RationalFunction.constant(QQ, 0), 0, 0)
    f7 = FiniteBase(7)
    g = RationalFunction(Poly.from_ints(GF(7), [0, 1]))
    with pytest.raises(ValueError, match="characteristic"):
        KummerCoverDatum("unramified", f7, 14, g, GF(7).zero, GF(7).zero)
    assert KummerCoverDatum("unramified", Q_BASE, 2, rf, 0, 1).f is None
    # a finite base looks its field up when built: no base without an order
    with pytest.raises(ValueError, match="^6 is not a prime power$"):
        FiniteBase(6)
    with pytest.raises(TypeError):
        FiniteBase()


def test_memos_stay_outside_equality():
    cls = BrauerClass.make(Q_BASE, 2, [(T + 1, T * T - 3)])
    twin = BrauerClass.make(Q_BASE, 2, [(T + 1, T * T - 3)])
    pt = ClosedPoint.rational(Q_BASE, -1)
    rc = residue_at(cls, pt)
    (s,), (t,) = cls.symbols, twin.symbols
    assert s._tame and not t._tame
    assert s == t and hash(s) == hash(t) and cls == twin
    assert rc.is_trivial() in (True, False) and rc._trivial is not None
    assert rc == ResidueClass(rc.point, rc.value, rc.p) and repr(rc) == repr(
        ResidueClass(rc.point, rc.value, rc.p))
    assert hash(pt) == hash((Q_BASE, pt.poly))
    cmp = compare_classes(cls, twin)
    assert cmp.equal and cmp == ClassComparison(cmp.c1, cmp.c2, cmp.net)


def test_comparison_keeps_its_computed_equal_and_cached_halves():
    c1 = BrauerClass.make(Q_BASE, 2, [(-1, -1)])
    c2 = BrauerClass.make(Q_BASE, 2, [(2, 5)])
    cmp = compare_classes(c1, c2)
    assert cmp.point is None and cmp.equal is False
    assert cmp.left_pairs == ((Fraction(-1), Fraction(-1)),)
    assert cmp.left_pairs is cmp.left_pairs and cmp._constant is cmp._constant
    with pytest.raises(AttributeError):
        cmp.equal = True


def test_rational_functions_over_different_fields_are_unequal():
    q = RationalFunction(Poly.from_ints(QQ, [1, 1]))
    f7 = RationalFunction(Poly.from_ints(GF(7), [1, 1]))
    assert q != f7 and f7 != q and not q == f7
    assert q != Poly.from_ints(GF(7), [1, 1]) and f7 != Poly.from_ints(QQ, [1, 1])
    assert q not in [f7] and q in [f7, q]
    assert q == Poly.from_ints(QQ, [1, 1]) and q == RationalFunction(T + 1)
    sq, s7 = Symbol(q, q), Symbol(f7, f7)
    assert sq != s7 and sq not in [s7] and sq == Symbol(q, q)


def test_importing_the_cli_builds_no_dataclass():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import brauercalc.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src")],
        capture_output=True, text=True, timeout=60, env=env, check=True,
    )
    assert proc.stdout.strip() == "[]"
