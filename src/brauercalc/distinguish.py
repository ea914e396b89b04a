"""Distinguishability verdicts and candidate enumeration.

Two classes with the same ramification data may still differ; the
orchestration here reports exactly what it can certify.  Every rung
reads the one brauer.compare_classes record of the pair.  The ladder:

  1. exact equality (the formal difference; its constant part unless it cancels),
  2. a residue-field mismatch at the first point where the two classes
     cut out different extensions,
  3. over Q, a rational specialization whose two constant classes are
     provably inequivalent: one trivial and one not, or both nontrivial
     with different nonsplit place sets, separated by an explicit
     quadratic field Q(sqrt(d)),
  4. the honest fallback "CandidateEquivalent", which never claims
     equivalence.

Over Q (p = 2) two residues cut out one extension exactly when their
quotient is a square, so step 2 stops at the record's first differing
point, and a pair that passes it differs by a nontrivial constant
class.  Step 3 reads a and b specialized where compare_classes decided
equality, with the square classes and nonsplit places it found
(left_classes, right_classes, left_places, right_places): no Hilbert
symbol is evaluated and no entry reduced to its kernel here.

Over F_q a divisor residue is no p-th power and kappa(x) has one
extension of degree p, so step 2 stops at the first point of one support
only.  The net class of the record has a nontrivial residue there, so
step 2 walks the net class's points in sorted order, and no divisor is
built.  Every constant class over F_q is
trivial, so distinct residue twists land in step 4, and whether they are
genuinely equivalent is not decided here.

Candidate enumeration over F_q(t) walks all residue twist tuples
(i_1, ..., i_r), 1 <= i_j <= p-1, keeps the ones whose corestriction
exponents sum to zero mod p, and realizes each survivor as an explicit
symbol sum, from Symbols built once per (point, exponent) in the call, so
their tame symbol and zero/pole memos serve every later survivor.
Residues are read through the norm, kappa(x)*/p = F_q*/p, so the survivor
check is one comparison: the recomputed divisor's normed exponents are
i_j cor_j at the j-th support point and nothing else.
"""

from __future__ import annotations

import itertools

from .brauer import BrauerClass, Symbol, compare_classes, ramification_divisor, ramification_points
from .errors import Record, ScopeError
from .factoring import factor_over_Fq
from .hilbert import separating_discriminant, splits_invariant_set
from .points import _point, reduce_at, residue_field
from .poly import RationalFunction
from .residues import corestriction_exponent, generator_power

EQUAL = "Equal"
BY_RAMIFICATION_FIELD = "DistinguishedByRamificationField"
BY_SPECIALIZATION = "DistinguishedBySpecialization"
CANDIDATE_EQUIVALENT = "CandidateEquivalent"

# Most twist tuples (p - 1)^r enumerate_candidates walks; each survivor is
# realized and re-verified in about 0.15 ms (F_13, p = 3, r = 6 or 7).
MAX_CANDIDATE_BOUND = 256


class FieldComparisonRow(Record):
    __slots__ = ("point", "left_ramified", "right_ramified", "left_label", "right_label")


class SpecializationCertificate(Record):
    """The two constant classes at the specialization point, separated;
    discriminant is a d with Q(sqrt(d)) splitting exactly one, or None."""

    __slots__ = ("at", "left_pairs", "right_pairs", "left_trivial", "right_trivial", "discriminant")


class Verdict(Record):
    __slots__ = ("outcome", "narrative", "point", "certificate")


def distinguish(a, b, sweep=200):
    """Verdict on whether the two classes provably differ.

    Steps 2 and 3 read the one compare_classes record: its first differing
    point over Q or the points of its net class over F_q, the residues
    there, and its two specialized halves.  sweep is a nonnegative budget:
    0 skips step 3, and any positive budget reads the halves at the first
    symbol-regular point (the `at` of compare_classes), which always
    separates them.
    """
    if sweep < 0:
        raise ValueError(f"the sweep budget must be nonnegative, got {sweep}")
    steps = ["compared ramification divisors and the constant part exactly"]
    cmp = compare_classes(a, b)
    if cmp.equal:
        return Verdict(EQUAL, (*steps, "classes are equal"))
    steps.append("compared residue extensions at every point of either support")
    pt = cmp.point
    if a.base.is_finite:
        # a point of one support only has a nontrivial net residue, so it
        # is a point of the net class
        pt = next((x for x in ramification_points(cmp.net)
                   if cmp.residues_at(x).count(None) == 1), None)
    if pt is not None:
        ra, rb = cmp.residues_at(pt)
        la, lb = ("unramified" if r is None else r.field_label() for r in (ra, rb))
        steps.append(f"extensions differ at {pt}: {la} vs {lb}")
        row = FieldComparisonRow(pt, ra is not None, rb is not None, la, lb)
        return Verdict(BY_RAMIFICATION_FIELD, tuple(steps), point=pt, certificate=row)
    if a.base.is_finite:
        steps.append(
            "specialization sweep skipped: every constant class over a finite "
            "field is trivial, so no rational point can separate the classes"
        )
        steps.append("no certificate found; equivalence is not claimed")
        return Verdict(CANDIDATE_EQUIVALENT, tuple(steps))
    steps.append("swept symbol-regular rational points outside both supports")
    if sweep == 0:
        steps.append("no separating point among the first 0 swept")
        steps.append("no certificate found; equivalence is not claimed")
        return Verdict(CANDIDATE_EQUIVALENT, tuple(steps))
    # over Q a constant class is trivial exactly when no place is nonsplit
    at, pa, pb = cmp.at, cmp.left_pairs, cmp.right_pairs
    sa, sb = cmp.left_places, cmp.right_places
    ta, tb = not sa, not sb
    if ta != tb:
        steps.append(
            f"at t = {at} exactly one specialization is trivial "
            f"(left: {ta}, right: {tb}), so the base field itself "
            "splits one class and not the other"
        )
        cert = SpecializationCertificate(at, pa, pb, ta, tb)
        return Verdict(BY_SPECIALIZATION, tuple(steps), point=at, certificate=cert)
    d = _separating_quadratic(cmp.left_classes, cmp.right_classes, sa, sb)
    steps.append(
        f"at t = {at} both specializations are nontrivial with "
        f"different nonsplit places {list(sa)} vs {list(sb)}; "
        f"Q(sqrt({d})) splits exactly one of them"
    )
    cert = SpecializationCertificate(at, pa, pb, False, False, d)
    return Verdict(BY_SPECIALIZATION, tuple(steps), point=at, certificate=cert)


def _separating_quadratic(ka, kb, sa, sb):
    """d for which Q(sqrt(d)) splits exactly one of the two constant classes,
    given as pairs of square classes (hilbert.square_classes).

    Kernels of the entries are tried first; the explicit congruence
    construction then guarantees an answer, since the nonsplit place
    sets differ.
    """
    seen = []
    for pairs in (ka, kb):
        for x, y in pairs:
            for k, _ in (x, y):
                if k != 1 and k not in seen:
                    seen.append(k)
    for d in seen:
        if splits_invariant_set(d, sa) != splits_invariant_set(d, sb):
            return d
    return separating_discriminant(sa, sb)


# ---------------------------------------------------------------------------
# candidate enumeration over F_q(t)

class CandidateSet(Record):
    """All reciprocity-compatible residue twists of a class, realized.

    The bound (p-1)^r caps the number of classes sharing this
    ramification support and residue fields; whether distinct members
    are genuinely inequivalent is left open here.  sequences holds the
    exponent tuples (i_1, ..., i_r) at the support points.
    """

    __slots__ = ("support", "sequences", "classes", "bound")

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
    cor = [corestriction_exponent(x, rc.value, p) for x, rc in div.entries]
    sequences, classes, shared = [], [], {}
    for tup in itertools.product(range(1, p), repeat=r):
        if sum(i * n for i, n in zip(tup, cor)) % p:
            continue
        sequences.append(tup)
        targets = {x: i * n % p for x, i, n in zip(supp, tup, cor)}
        classes.append(_realize_tuple(a, targets, shared))
    return CandidateSet(supp, tuple(sequences), tuple(classes), bound)


def _realize_tuple(a, targets, shared):
    """Symbol sum whose ramification divisor has the normed exponents
    targets, {point: k}, and no other point.

    Finite points are realized by the Symbols shared[x, k], built once per
    call; infinity's exponent is forced by reciprocity, as the targets sum
    to zero mod p.  The one check: the recomputed divisor's {point: normed
    exponent} equals targets, which fixes its support and, as kappa(x)*/p =
    F_q*/p through the norm, its residue class at every point.
    """
    base, p = a.base, a.p
    for key in targets.items():
        if key not in shared and not key[0].is_infinity:
            shared[key] = [Symbol(*s) for s in _residue_symbols(base, p, *key)]
    built = BrauerClass(base, p, tuple(s for key in targets.items() for s in shared.get(key, ())))
    got = {x: corestriction_exponent(x, rc.value, p)
           for x, rc in ramification_divisor(built).entries}
    if got != targets:
        raise AssertionError(f"realized normed exponents {got} miss their targets {targets}")
    return built


def _residue_symbols(base, p, pt, k):
    """Symbols with normed residue exponent k at the finite point pt.

    Net effect: exactly that residue class at pt, trivial residue at
    every other finite point, and whatever infinity demands.  A constant
    c of F_q has norm c^d at a point of degree d, so when p does not
    divide d the constant of normed exponent k/d at infinity, where
    kappa = F_q, is the residue.  When p divides d, constants land in the
    kernel of k* -> kappa*/(kappa*)^p, so generator_power's representative
    at pt is used as a polynomial, and the ramification it drags in at its
    own factors is cancelled recursively at strictly smaller degrees.
    """
    if k == 0:
        return []
    if pt.degree % p:
        c = generator_power(_point(base, None), k * pow(pt.degree, -1, p), p)
        return [(RationalFunction.constant(base.field, c), RationalFunction(pt.poly))]
    w = residue_field(pt).to_poly(generator_power(pt, k, p))
    out = [(RationalFunction(w), RationalFunction(pt.poly))]
    for phi, e in factor_over_Fq(w):
        ppt = _point(base, phi)
        pi_img = reduce_at(RationalFunction(pt.poly), ppt)
        out.extend(_residue_symbols(base, p, ppt, e * corestriction_exponent(ppt, pi_img, p) % p))
    return out
