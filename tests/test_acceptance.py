"""Acceptance suite: one test per criterion, one printed verdict line each.

Every test prints "criterion N: PASS/FAIL - detail" (visible under
pytest -s) and asserts the same condition, so the printed line and the
test outcome can never disagree.  All randomness is seeded; tolerances
are exact.
"""

import random
import time
from fractions import Fraction

from brauercalc.brauer import (
    BrauerClass,
    classes_equal,
    ramification_divisor,
    reciprocity_check,
)
from brauercalc.covers import (
    make_unramified_cover,
    splitting_witness,
    unramified_cover_certificates,
    verify_splitting_witness,
)
from brauercalc.distinguish import (
    BY_RAMIFICATION_FIELD,
    BY_SPECIALIZATION,
    distinguish,
    enumerate_candidates,
)
from brauercalc.factoring import factor_poly
from brauercalc.hilbert import hilbert_symbol, relevant_places
from brauercalc.points import ClosedPoint, Q_BASE, sweep_values
from brauercalc.poly import Poly, QQ, RationalFunction

from _gen import (
    F7,
    F13,
    nonsquare_rational,
    nonzero_rational,
    random_class,
    rational,
)
from _oracles import classes_equal_oracle, expand, oracle_candidate_count


def _verdict(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_reciprocity():
    rng = random.Random(1001)
    backends = ((Q_BASE, 2), (F7, 2), (F7, 3), (F13, 3))
    failures = 0
    for base, p in backends:
        for _ in range(100):
            c = random_class(rng, base, p, 3, 4, height=50)
            if not reciprocity_check(c):
                failures += 1
    _verdict(
        1,
        failures == 0,
        "100 random classes per backend (Q p=2; F_7 p=2,3; F_13 p=3), "
        f"entries of degree <= 4, height <= 50: {failures} reciprocity failures",
    )


def test_criterion_2_hilbert_product_formula():
    rng = random.Random(1002)
    bad = 0
    for _ in range(1000):
        a = nonzero_rational(rng, 10_000)
        b = nonzero_rational(rng, 10_000)
        prod = 1
        for v in relevant_places([(a, b)]):
            prod *= hilbert_symbol(a, b, v)
        if prod != 1:
            bad += 1
    _verdict(
        2,
        bad == 0,
        f"1000 random pairs of height <= 10^4: {bad} product-formula violations",
    )


def test_criterion_3_equality_matches_oracle():
    rng = random.Random(1003)
    disagreements = 0
    for k in range(200):
        a = random_class(rng, Q_BASE, 2, 2, 2, height=10)
        mode = k % 3
        if mode == 0:
            b = a
        elif mode == 1:
            s = random_class(rng, Q_BASE, 2, 1, 2, height=10)
            b = a + s + s
        else:
            b = a + random_class(rng, Q_BASE, 2, 1, 2, height=10)
        if classes_equal(a, b) != classes_equal_oracle(a, b, samples=10):
            disagreements += 1
    _verdict(
        3,
        disagreements == 0,
        "200 pairs (a, a + delta), delta empty / doubled symbol / perturbation: "
        f"{disagreements} disagreements with the divisor-plus-invariants oracle",
    )


def test_criterion_4_distinct_pairs_always_distinguished():
    rng = random.Random(1004)
    checked = 0
    wrong = []
    while checked < 50:
        a = random_class(rng, Q_BASE, 2, 3, 3, height=10)
        b = random_class(rng, Q_BASE, 2, 3, 3, height=10)
        if classes_equal_oracle(a, b):
            continue
        checked += 1
        v = distinguish(a, b)
        if v.outcome not in (BY_RAMIFICATION_FIELD, BY_SPECIALIZATION):
            wrong.append(v.outcome)
    _verdict(
        4,
        not wrong,
        "50 oracle-distinct quaternion pairs (<= 3 symbols, degree <= 3): "
        f"all Distinguished, {len(wrong)} fell back to CandidateEquivalent or Equal",
    )


def test_criterion_5_candidate_count_and_bound():
    # r = 1 never occurs for a genuine class: a nontrivial residue has an
    # invertible corestriction exponent, so a single point cannot satisfy
    # reciprocity; sampled supports populate r = 2 and r = 3
    rng = random.Random(1005)
    backends = ((F7, 2), (F7, 3), (F13, 3))
    kept = 0
    attempts = 0
    bad = 0
    seen_r = set()
    while kept < 50:
        base, p = backends[attempts % 3]
        attempts += 1
        c = random_class(rng, base, p, 2, 2)
        r = len(ramification_divisor(c).support())
        if not 1 <= r <= 3:
            continue
        kept += 1
        seen_r.add(r)
        cand = enumerate_candidates(c)
        if cand.size != oracle_candidate_count(c) or cand.size > (p - 1) ** r:
            bad += 1
    _verdict(
        5,
        bad == 0,
        f"50 finite-base classes with r in {sorted(seen_r)}: {bad} mismatches "
        "against the brute-force tuple count; all sizes within (p-1)^r",
    )


def test_criterion_6_splitting_witness_loop():
    rng = random.Random(1006)
    bad = 0
    for _ in range(50):
        a = nonsquare_rational(rng, 30)
        u = nonzero_rational(rng, 20)
        c = rational(rng, 20)
        lin = RationalFunction(Poly(QQ, [-c, QQ.one])) * RationalFunction.constant(
            QQ, u
        )
        w = splitting_witness(Q_BASE, 2, a, lin)
        cls = BrauerClass.make(Q_BASE, 2, [(a, lin)])
        report = verify_splitting_witness(cls, w)
        names = {chk.name: chk.passed for chk in report.checks}
        if not (
            report.mode == "full"
            and report.ok
            and names.get("pullback-divisor-empty")
            and names.get("pullback-constant-trivial")
        ):
            bad += 1
    _verdict(
        6,
        bad == 0,
        "50 random symbols (a, u(t-c)) with nonsquare a: pullback through the "
        f"witness cover has empty divisor and trivial specialization, {bad} failures",
    )


def test_criterion_7_unramified_cover_certificates():
    rng = random.Random(1007)
    done = 0
    bad = 0
    while done < 25:
        base, p = (Q_BASE, 2) if done % 2 == 0 else (F7, 3)
        c = random_class(rng, base, p, 2, 3, height=8)
        supp = ramification_divisor(c).support()
        if not 1 <= len(supp) <= 4:
            continue
        xv = next(
            v for v in sweep_values(base) if ClosedPoint.rational(base, v) not in supp
        )
        bpt = None
        if any(pt.is_infinity for pt in supp):
            bv = next(
                v
                for v in sweep_values(base)
                if v != xv and ClosedPoint.rational(base, v) not in supp
            )
            bpt = ClosedPoint.rational(base, bv)
        w = make_unramified_cover(c, xv, bpt)
        report = unramified_cover_certificates(c, w)
        root_rational = w.fiber_root ** w.m == w.g.evaluate(base.field.coerce(xv))
        if not (report.ok and root_rational):
            bad += 1
        done += 1
    _verdict(
        7,
        bad == 0,
        "25 classes with |supp D| <= 4: all Eisenstein valuations 1, f(x) != 0, "
        f"rational fiber factor at x; {bad} failures",
    )


def _random_q_irreducible(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return Poly.from_ints(QQ, [rng.randint(-9, 9), 1])
    if kind == 1:
        while True:
            b, c = rng.randint(-9, 9), rng.randint(1, 40)
            if b * b - 4 * c < 0:
                return Poly.from_ints(QQ, [c, b, 1])
    ell = rng.choice([2, 3, 5])
    d = rng.randint(2, 4)
    c0 = ell * rng.randint(1, 6)
    while c0 % (ell * ell) == 0:
        c0 = ell * rng.randint(1, 6)
    coeffs = [c0] + [ell * rng.randint(-4, 4) for _ in range(d - 1)] + [1]
    return Poly.from_ints(QQ, coeffs)


def _random_fq_irreducible(rng, field):
    q = field.order
    while True:
        d = rng.randint(1, 3)
        coeffs = [field.from_int(rng.randrange(q)) for _ in range(d)] + [field.one]
        f = Poly(field, coeffs)
        if d == 1:
            return f
        # a reducible polynomial of degree 2 or 3 must have a linear factor
        if all(f.evaluate(field.from_int(i)) != field.zero for i in range(q)):
            return f


def test_criterion_8_factorization_stress():
    rng = random.Random(1008)
    t0 = time.monotonic()
    bad = 0
    for k in range(100):
        if k % 2 == 0:
            field = QQ
            unit = Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([1, 2, 3]))
            make = lambda: _random_q_irreducible(rng)
        else:
            field = (F7 if k % 4 == 1 else F13).field
            unit = field.from_int(rng.randrange(1, field.order))
            make = lambda: _random_fq_irreducible(rng, field)
        chosen = {}
        total = 0
        while total < 10:
            f = make()
            if total + f.degree > 10:
                break
            mult = 2 if rng.random() < 0.25 and total + 2 * f.degree <= 10 else 1
            chosen[f] = chosen.get(f, 0) + mult
            total += mult * f.degree
            if rng.random() < 0.3 and chosen:
                break
        product = Poly.constant(field, field.coerce(unit))
        for f, e in chosen.items():
            product = product * f**e
        fac = factor_poly(product)
        if dict(fac) != chosen or expand(unit, fac) != product:
            bad += 1
    elapsed = time.monotonic() - t0
    _verdict(
        8,
        bad == 0 and elapsed < 60,
        f"100 products of certified irreducibles (degree <= 10): {bad} mismatches "
        f"in {elapsed:.1f}s",
    )
