"""One CacheStats protocol across the serving answer cache and plan cache."""

from __future__ import annotations

import pytest

from repro.core.engine import release_marginals
from repro.obs import CacheStats, tracing
from repro.queries import all_k_way
from repro.serving.cache import AnswerCache
from repro.serving.service import QueryService


class TestCacheStatsProtocol:
    def test_counts_and_hit_rate(self):
        stats = CacheStats()
        assert stats.requests == 0
        assert stats.hit_rate == 0.0
        stats.record_miss()
        stats.record_hit()
        stats.record_hit()
        stats.record_eviction()
        assert stats.requests == 3
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.to_dict() == {
            "hits": 2,
            "misses": 1,
            "evictions": 1,
            "hit_rate": pytest.approx(2 / 3),
        }

    def test_mirrors_to_metrics_only_under_tracing(self):
        stats = CacheStats(metric_prefix="test.cache")
        stats.record_hit()  # no recorder active: plain increment only
        with tracing() as recorder:
            stats.record_hit()
            stats.record_miss()
            stats.record_eviction()
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["test.cache.hits"] == 1.0
        assert counters["test.cache.misses"] == 1.0
        assert counters["test.cache.evictions"] == 1.0
        assert stats.hits == 2  # both hits counted locally


class TestAnswerCacheStats:
    def test_hits_misses_evictions(self):
        cache = AnswerCache(max_entries=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1
        cache.put("c", 3)  # evicts the LRU entry ("b")
        stats = cache.stats
        assert isinstance(stats, CacheStats)
        assert stats.misses == 1
        assert stats.hits == 1
        assert stats.evictions == 1

    def test_traced_service_mirrors_cache_counters(self, small_dataset):
        workload = all_k_way(small_dataset.schema, 2)
        release = release_marginals(
            small_dataset, workload, budget=1.0, strategy="F", rng=3
        )
        service = QueryService(release)
        with tracing() as recorder:
            service.query(["a"])
            service.query(["a"])  # cache hit
        counters = recorder.metrics.snapshot()["counters"]
        assert counters["serving.cache.hits"] == 1.0
        assert counters["serving.cache.misses"] == 1.0
        assert counters["serving.queries"] == 2.0
        stats = service.stats()
        assert stats["queries"] == 2
        assert stats["cache"]["hits"] == 1
        assert stats["cache"]["hit_rate"] == pytest.approx(0.5)


class TestBatchPathObs:
    def test_traced_batch_reports_plan_cache_groups_and_span(self, small_dataset):
        workload = all_k_way(small_dataset.schema, 2)
        release = release_marginals(
            small_dataset, workload, budget=1.0, strategy="F", rng=3
        )
        # cache_size=0: every request goes through the grouped batch path.
        service = QueryService(release, cache_size=0, batch_workers=1)
        with tracing() as recorder:
            service.query_batch(
                [["a"], ["b"], {"attributes": ["a"], "where": {"b": 1}}]
            )
            service.query_batch([["a"]])  # same shape: plan cache hit
        snapshot = recorder.metrics.snapshot()
        counters = snapshot["counters"]
        assert counters["serving.batches"] == 2.0
        assert counters["serving.batched_requests"] == 4.0
        assert counters["serving.plan_cache.misses"] >= 1.0
        assert counters["serving.plan_cache.hits"] >= 1.0
        assert "serving.batch.group_size" in snapshot["histograms"]
        assert "serving.batch.aggregate" in recorder.span_names()
        stats = service.stats()
        assert stats["batch_groups"] >= 2
        assert stats["plan_cache"]["hits"] >= 1
