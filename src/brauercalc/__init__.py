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

from .report import VERSION as __version__
