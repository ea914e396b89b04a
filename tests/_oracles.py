"""Reference predicates shared by several test modules.

These deliberately avoid the code paths they are used to check: class
equality is decided from the ramification divisor of the difference plus
Hilbert invariants of specializations at several points, not from the single
constant-class test the library applies; the candidate count recomputes
norms as Frobenius conjugate products and tests p-th power membership
against an enumerated power set.
"""

import itertools

from brauercalc.brauer import (
    ramification_divisor,
    regular_rational_points,
    specialize,
)
from brauercalc.hilbert import local_invariants, relevant_places
from brauercalc.points import residue_field


def classes_equal_oracle(a, b, samples=10):
    """The divisor of a - b must be empty; over Q the local invariants of
    the specializations must then match at `samples` symbol-regular values.
    The unramified difference is a constant class, so one value would do;
    sampling several keeps the reference honest.  The library compares the
    divisors of a and b instead, and this reference must not call it."""
    if not ramification_divisor(a - b).is_empty:
        return False
    if a.base.is_finite:
        return True
    diff = a - b
    for c in regular_rational_points(diff, samples):
        pa, pb = specialize(a, c), specialize(b, c)
        places = relevant_places(list(pa) + list(pb))
        if local_invariants(pa, places) != local_invariants(pb, places):
            return False
    return True


def _to_base(kappa, base_field, v):
    """Pull a Frobenius-fixed value down to the constant field by matching."""
    for c in base_field.elements():
        if kappa.coerce(c) == v:
            return c
    raise AssertionError("norm did not land in the constant field")


def oracle_candidate_count(a):
    """Count twist tuples passing reciprocity, straight from the definition."""
    base_field = a.base.field
    q = base_field.order
    p = a.p
    div = ramification_divisor(a)
    entries = list(div.entries)
    if not entries:
        return 1
    pth_powers = {x**p for x in base_field.elements() if x != base_field.zero}
    count = 0
    for tup in itertools.product(range(1, p), repeat=len(entries)):
        prod = base_field.one
        for (pt, rc), i in zip(entries, tup):
            kappa = residue_field(pt)
            v = rc.value**i
            acc, frob = v, v
            for _ in range(pt.degree - 1):
                frob = frob**q
                acc = acc * frob
            prod = prod * _to_base(kappa, base_field, acc)
        if prod in pth_powers:
            count += 1
    return count
