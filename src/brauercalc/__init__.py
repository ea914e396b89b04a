"""Exact residue calculus for p-torsion Brauer classes over k(t).

The base field k is Q or a finite field F_q with q = 1 mod p.  Classes
are sums of degree-p symbols with entries in k(t).  The package
computes tame residues and ramification divisors, checks reciprocity,
decides exact equality, separates inequivalent classes with checkable
certificates, enumerates residue-compatible twists over finite bases,
and constructs Kummer covers that witness splitting behavior.

All arithmetic is exact: Fractions over Q, integers mod p and quotient
rings over F_q, coefficient lists for polynomials.
"""

from .brauer import (
    BrauerClass,
    Symbol,
    classes_equal,
    compare_classes,
    constant_is_trivial,
    ramification_divisor,
    ramification_points,
    reciprocity_check,
    regular_rational_points,
    residue_at,
    specialize,
)
from .covers import (
    KummerCoverDatum,
    Reparametrization,
    make_unramified_cover,
    pullback_class,
    splitting_witness,
    unramified_cover_certificates,
    verify_splitting_witness,
)
from .distinguish import (
    BY_RAMIFICATION_FIELD,
    BY_SPECIALIZATION,
    CANDIDATE_EQUIVALENT,
    EQUAL,
    CandidateSet,
    Verdict,
    distinguish,
    enumerate_candidates,
)
from .errors import NotSymbolRegular, ParseError, ScopeError
from .factoring import factor_int, factor_poly, is_irreducible, squarefree_kernel
from .fields import GF, rational_is_square
from .hilbert import hilbert_symbol, invariant_set, local_invariants
from .parser import class_text, parse_class, parse_ratfunc, ratfunc_text
from .points import ClosedPoint, FiniteBase, Q_BASE, residue_field, valuation_at
from .poly import Poly, QQ, RationalFunction
from .report import Report, VERSION
from .residues import ResidueClass, is_pth_power, same_kummer_extension

__version__ = VERSION
