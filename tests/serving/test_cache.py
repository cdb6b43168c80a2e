"""Tests of the LRU answer cache."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ServingError
from repro.serving.cache import AnswerCache
from repro.serving.planner import QueryPlan, ServedAnswer


def make_answer(mask: int) -> ServedAnswer:
    plan = QueryPlan(
        union_mask=mask, source_mask=mask, source_position=0, expansion=1, per_cell_variance=2.0
    )
    values = np.arange(2, dtype=np.float64)
    values.setflags(write=False)
    return ServedAnswer(values=values, query_mask=mask, fixed_mask=0, fixed_bits=0, plan=plan)


class TestAnswerCache:
    def test_hit_miss_counters(self):
        cache = AnswerCache(4)
        key = ("r", 1)
        assert cache.get(key) is None
        cache.put(key, make_answer(1))
        assert cache.get(key) is not None
        stats = cache.stats
        assert stats.hits == 1
        assert stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_get_many_all_or_nothing_counts_only_a_full_hit(self):
        cache = AnswerCache(4)
        k1, k2 = ("r", 1), ("r", 2)
        cache.put(k1, make_answer(1))
        assert cache.get_many([k1, k2], all_or_nothing=True) is None
        assert cache.get_many([k1, None], all_or_nothing=True) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)
        found = cache.get_many([k1, k2, None])
        assert found[0] is not None and found[1:] == [None, None]
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        cache.put(k2, make_answer(2))
        assert len(cache.get_many([k1, k2], all_or_nothing=True)) == 2
        assert (cache.stats.hits, cache.stats.misses) == (3, 1)

    def test_lru_eviction_order(self):
        cache = AnswerCache(2)
        k1, k2, k3 = (("r", m) for m in (1, 2, 3))
        cache.put(k1, make_answer(1))
        cache.put(k2, make_answer(2))
        cache.get(k1)  # refresh k1 so k2 becomes the LRU entry
        cache.put(k3, make_answer(3))
        assert k1 in cache
        assert k2 not in cache
        assert k3 in cache
        assert cache.stats.evictions == 1

    def test_put_refreshes_existing_key(self):
        cache = AnswerCache(2)
        k1, k2, k3 = (("r", m) for m in (1, 2, 3))
        cache.put(k1, make_answer(1))
        cache.put(k2, make_answer(2))
        cache.put(k1, make_answer(1))  # refresh, no eviction
        assert cache.stats.evictions == 0
        cache.put(k3, make_answer(3))
        assert k2 not in cache and k1 in cache

    def test_zero_capacity_disables_caching(self):
        cache = AnswerCache(0)
        key = ("r", 1)
        cache.put(key, make_answer(1))
        assert len(cache) == 0
        assert cache.get(key) is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ServingError):
            AnswerCache(-1)

    def test_clear_keeps_counters(self):
        cache = AnswerCache(4)
        key = ("r", 1)
        cache.put(key, make_answer(1))
        cache.get(key)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
