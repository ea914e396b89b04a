"""Shared fixtures: every test starts with empty polynomial factor caches.

factor_over_Q and factor_over_Fq (over a prime field) answer a repeated
polynomial from an lru_cache.  A test that patches a budget, or a route
it guards, must see the factorization run, not an answer that an earlier
test left in the cache.
"""

import pytest

from brauercalc import factoring


@pytest.fixture(autouse=True)
def clear_factor_caches():
    factoring._factor_q_monic.cache_clear()
    factoring._factor_fp_monic.cache_clear()
