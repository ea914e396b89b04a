"""Distinguishability verdicts and candidate enumeration.

Two classes with the same ramification data may still differ; the
orchestration here reports exactly what it can certify.  The ladder:

  1. exact equality (divisor comparison plus the constant part),
  2. a residue-field mismatch at some point of either support,
  3. over Q, a rational specialization whose two constant classes are
     provably inequivalent: one trivial and one not, or both nontrivial
     with different nonsplit place sets, separated by an explicit
     quadratic field Q(sqrt(d)),
  4. the honest fallback "CandidateEquivalent", which never claims
     equivalence.

Over a finite constant field every constant class is trivial, so step 3
can never separate anything and distinct residue twists land in step 4;
whether such twists are genuinely equivalent is not decided here.

Candidate enumeration over F_q(t) walks all residue twist tuples
(i_1, ..., i_r), 1 <= i_j <= p-1, keeps the ones whose corestriction
exponents sum to zero mod p, and realizes each survivor as an explicit
symbol sum whose recomputed divisor reproduces the tuple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .brauer import BrauerClass, compare_classes, ramification_divisor, specialize
from .errors import NotSymbolRegular, ScopeError
from .factoring import factor_over_Fq, squarefree_kernel
from .fields import is_pth_power_finite, multiplicative_generator, pth_power_exponent
from .hilbert import invariant_set, separating_discriminant, splits_invariant_set
from .points import ClosedPoint, reduce_at, residue_field, sorted_points, sweep_values
from .poly import RationalFunction
from .residues import corestriction_exponent

EQUAL = "Equal"
BY_RAMIFICATION_FIELD = "DistinguishedByRamificationField"
BY_SPECIALIZATION = "DistinguishedBySpecialization"
CANDIDATE_EQUIVALENT = "CandidateEquivalent"

# Most twist tuples (p - 1)^r enumerate_candidates walks; each survivor is
# realized and re-verified at about 10 ms.
MAX_CANDIDATE_BOUND = 256


@dataclass(frozen=True)
class FieldComparisonRow:
    point: object
    left_ramified: bool
    right_ramified: bool
    same_field: bool
    left_label: str
    right_label: str

    @property
    def mismatch(self):
        return not self.same_field


@dataclass(frozen=True)
class SpecializationCertificate:
    """The two constant classes at a sweep point, with the separation."""

    at: object
    left_pairs: tuple
    right_pairs: tuple
    left_trivial: bool
    right_trivial: bool
    discriminant: object = None  # d with Q(sqrt(d)) splitting exactly one


@dataclass(frozen=True)
class Verdict:
    outcome: str
    narrative: tuple
    point: object = None
    certificate: object = None


def _check_pair(a, b):
    if a.base != b.base or a.p != b.p:
        raise ValueError("classes over different settings")


def compare_ramification_fields(a, b):
    """Per-point table of residue-extension agreement over both supports."""
    _check_pair(a, b)
    return _field_table(ramification_divisor(a), ramification_divisor(b))


def _field_table(da, db):
    rows = []
    for pt in sorted_points(set(da.support()) | set(db.support())):
        ra, rb = da.residue(pt), db.residue(pt)
        if ra is None or rb is None:
            same = False
        else:
            same = ra.same_field(rb)
        rows.append(
            FieldComparisonRow(
                pt,
                ra is not None,
                rb is not None,
                same,
                ra.field_label() if ra is not None else "unramified",
                rb.field_label() if rb is not None else "unramified",
            )
        )
    return tuple(rows)


def distinguish(a, b, sweep=200):
    """Verdict on whether the two classes provably differ.

    sweep, a nonnegative budget, bounds how many admissible specialization
    points are tried before falling back to CandidateEquivalent.
    """
    if sweep < 0:
        raise ValueError(f"the sweep budget must be nonnegative, got {sweep}")
    steps = ["compared ramification divisors and the constant part exactly"]
    cmp = compare_classes(a, b)
    if cmp.equal:
        return Verdict(EQUAL, (*steps, "classes are equal"))
    table = _field_table(cmp.left, cmp.right)
    steps.append("compared residue extensions at every point of either support")
    for row in table:
        if row.mismatch:
            steps.append(
                f"extensions differ at {row.point}: "
                f"{row.left_label} vs {row.right_label}"
            )
            return Verdict(
                BY_RAMIFICATION_FIELD, tuple(steps), point=row.point, certificate=row
            )
    if a.base.is_finite:
        steps.append(
            "specialization sweep skipped: every constant class over a finite "
            "field is trivial, so no rational point can separate the classes"
        )
        steps.append("no certificate found; equivalence is not claimed")
        return Verdict(CANDIDATE_EQUIVALENT, tuple(steps))
    steps.append("swept symbol-regular rational points outside both supports")
    tried = 0
    for c in sweep_values(a.base):
        if tried >= sweep:
            break
        cv = a.base.field.coerce(c)
        # support points are ramified: an entry has a zero or a pole there,
        # so specialize refuses them
        try:
            pa, pb = specialize(a, cv), specialize(b, cv)
        except NotSymbolRegular:
            continue
        tried += 1
        # over Q a constant class is trivial exactly when no place is nonsplit
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


def _separating_quadratic(pa, pb, sa, sb):
    """d for which Q(sqrt(d)) splits exactly one of the two constant classes.

    Kernels of the entries are tried first; the explicit congruence
    construction then guarantees an answer, since the nonsplit place
    sets differ.
    """
    seen = []
    for pairs in (pa, pb):
        for x, y in pairs:
            for v in (x, y):
                k = squarefree_kernel(Fraction(v))
                if k != 1 and k not in seen:
                    seen.append(k)
    for d in seen:
        if splits_invariant_set(d, sa) != splits_invariant_set(d, sb):
            return d
    return separating_discriminant(sa, sb)


# ---------------------------------------------------------------------------
# candidate enumeration over F_q(t)

@dataclass(frozen=True)
class TwistSequence:
    """Exponents i_j applied to the residues at the support points."""

    points: tuple
    exponents: tuple


@dataclass(frozen=True)
class CandidateSet:
    """All reciprocity-compatible residue twists of a class, realized.

    The bound (p-1)^r caps the number of classes sharing this
    ramification support and residue fields; whether distinct members
    are genuinely inequivalent is left open here.
    """

    base_class: object
    support: tuple
    sequences: tuple
    classes: tuple
    bound: int

    @property
    def size(self):
        return len(self.sequences)


def enumerate_candidates(a):
    """Realized candidate set of a class over a finite constant field."""
    if not a.base.is_finite:
        raise ScopeError("candidate enumeration needs a finite constant field")
    p = a.p
    div = ramification_divisor(a)
    supp = div.support()
    r = len(supp)
    bound = (p - 1) ** r
    if bound > MAX_CANDIDATE_BOUND:
        raise ScopeError(f"{bound} tuples over {r} points exceed {MAX_CANDIDATE_BOUND}")
    if r == 0:
        zero = BrauerClass.zero(a.base, p)
        return CandidateSet(a, (), (TwistSequence((), ()),), (zero,), bound)
    cor = [corestriction_exponent(rc) for _, rc in div.entries]
    sequences = []
    classes = []
    for tup in itertools.product(range(1, p), repeat=r):
        if sum(i * n for i, n in zip(tup, cor)) % p:
            continue
        built = _realize_tuple(a, div, tup)
        sequences.append(TwistSequence(supp, tup))
        classes.append(built)
    return CandidateSet(a, supp, tuple(sequences), tuple(classes), bound)


def _realize_tuple(a, div, tup):
    """Symbol sum with residue rho_j^(i_j) at the j-th support point.

    Finite points are realized directly; the residue at infinity is
    forced by reciprocity, because the tuple passed the corestriction
    filter and kappa(inf) is the constant field itself.  The divisor is
    recomputed and checked against the targets before returning.
    """
    base, p = a.base, a.p
    pairs = []
    targets = {}
    for (pt, rc), i in zip(div.entries, tup):
        target = rc.value**i
        targets[pt] = target
        if pt.is_infinity:
            continue
        pairs.extend(_residue_symbols(base, p, pt, target))
    built = BrauerClass.make(base, p, pairs)
    bdiv = ramification_divisor(built)
    if set(bdiv.support()) != set(div.support()):
        raise AssertionError(
            f"realized class ramifies at {bdiv.support()}, expected {div.support()}"
        )
    for pt, rc in bdiv.entries:
        kappa = residue_field(pt)
        ratio = rc.value / kappa.coerce(targets[pt])
        if not is_pth_power_finite(ratio, p):
            raise AssertionError(f"realized residue at {pt} misses its target")
    return built


def _residue_symbols(base, p, pt, value):
    """Symbols realizing the class of value at the finite point pt.

    Net effect: exactly that residue class at pt, trivial residue at
    every other finite point, and whatever infinity demands.  When p
    divides the point degree, constants land in the kernel of
    k* -> kappa*/(kappa*)^p, so a polynomial representative is used and
    the ramification it drags in at its own factors is cancelled
    recursively at strictly smaller degrees.
    """
    kappa = residue_field(pt)
    m = pth_power_exponent(kappa.coerce(value), p)
    if m == 0:
        return []
    d = pt.degree
    if d % p:
        g = multiplicative_generator(base.field)
        # the exponent of the embedded constant-field generator inside
        # kappa is d times a unit, but the unit depends on the generator
        # kappa happened to fix, so it is measured rather than assumed
        gamma = pth_power_exponent(kappa.coerce(g), p)
        e = m * pow(gamma, -1, p) % p
        return [(RationalFunction.constant(base.field, g**e), RationalFunction(pt.poly))]
    gen = multiplicative_generator(kappa)
    w = kappa.to_poly(gen**m)
    out = [(RationalFunction(w), RationalFunction(pt.poly))]
    for phi, e in factor_over_Fq(w).factors:
        ppt = ClosedPoint._trusted(base, phi)
        pi_img = reduce_at(RationalFunction(pt.poly), ppt)
        out.extend(_residue_symbols(base, p, ppt, pi_img**e))
    return out


# ---------------------------------------------------------------------------
# uniqueness over Q(t), p = 2

UNIQUENESS_NOTE = (
    "2-torsion classes over Q(t) have singleton equivalence classes; that "
    "statement is consumed as a theorem, not re-proved.  This report only "
    "confirms that each supplied comparison is Equal or carries an explicit "
    "distinguishing certificate."
)


@dataclass(frozen=True)
class UniquenessReport:
    subject: object
    rows: tuple  # (comparison class, Verdict)
    note: str

    @property
    def all_certified(self):
        return all(v.outcome != CANDIDATE_EQUIVALENT for _, v in self.rows)


def uniqueness_report(a, comparisons, sweep=200):
    if a.base.is_finite or a.p != 2:
        raise ScopeError("uniqueness reporting applies to 2-torsion over Q(t)")
    rows = tuple((c, distinguish(a, c, sweep=sweep)) for c in comparisons)
    return UniquenessReport(a, rows, UNIQUENESS_NOTE)
