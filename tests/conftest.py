"""Shared fixtures: every test starts with empty factor caches and an
empty memo of Hilbert symbol sets.

factor_over_Q and factor_over_Fq (over every finite field) answer a
repeated polynomial, and fields.factor_int a repeated integer, from an
lru_cache; points.zero_points holds no cache of its own and reads the
factor cache.
hilbert.nonsplit_places reads the nonsplit places of each pair of
squarefree kernels from the lru_cache hilbert._pair_places.  A test that
patches a budget, or a route it guards, or the Hilbert symbol itself,
must see the work run, not an answer that an earlier test left in a
cache: test_fields.py's Pollard-Brent seeding test, for one, and the
reciprocity and evaluate-once tests of test_brauer.py and
test_distinguish.py would otherwise depend on the order the tests run
in.
"""

import pytest

from brauercalc import factoring, fields, hilbert


@pytest.fixture(autouse=True)
def clear_caches():
    factoring._factor_q_monic.cache_clear()
    factoring._factor_fq_monic.cache_clear()
    fields.factor_int.cache_clear()
    hilbert._pair_places.cache_clear()
