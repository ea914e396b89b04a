"""Shared fixtures: every test starts with empty factor caches.

factor_over_Q and factor_over_Fq (over a prime field) answer a repeated
polynomial, and fields.factor_int a repeated integer, from an lru_cache;
points.zero_points holds no cache of its own and reads the factor cache.
A test that patches a budget, or a route it guards, must see the
factorization run, not an answer that an earlier test left in the cache:
test_fields.py's Pollard-Brent seeding test, for one, would otherwise
depend on the order the tests run in.
"""

import pytest

from brauercalc import factoring, fields


@pytest.fixture(autouse=True)
def clear_factor_caches():
    factoring._factor_q_monic.cache_clear()
    factoring._factor_fp_monic.cache_clear()
    fields.factor_int.cache_clear()
