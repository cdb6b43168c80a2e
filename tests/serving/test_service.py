"""Tests of the QueryService facade (routing, caching, batching)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import release_marginals
from repro.exceptions import ServingError
from repro.queries import all_k_way
from repro.serving.service import QueryRequest, QueryService, resolve_predicate
from repro.serving.store import ReleaseStore
from repro.strategies.marginal import submarginal


@pytest.fixture
def store(tmp_path, release) -> ReleaseStore:
    store = ReleaseStore(tmp_path / "store")
    store.put(release, release_id="r1")
    return store


class TestResolvePredicate:
    def test_codes_and_labels(self, schema):
        fixed_mask, fixed_bits = resolve_predicate(schema, {"a": 1, "c": 0})
        assert fixed_mask == 0b00101
        assert fixed_bits == 0b00001
        # String codes work too.
        assert resolve_predicate(schema, {"a": "1"}) == (0b00001, 0b00001)

    def test_bad_value_rejected(self, schema):
        with pytest.raises(ServingError):
            resolve_predicate(schema, {"a": 7})
        with pytest.raises(ServingError):
            resolve_predicate(schema, {"a": "nope"})


class TestSingleQueries:
    def test_in_memory_release(self, release):
        service = QueryService(release)
        answer = service.query(["a", "b"])
        np.testing.assert_allclose(answer.values, release.marginal_for(0b00011))
        assert answer.release_id is None
        assert answer.std_error > 0

    def test_store_backed(self, store, release):
        service = QueryService(store)
        answer = service.query(["a", "b"])
        assert answer.release_id == "r1"
        np.testing.assert_allclose(answer.values, release.marginal_for(0b00011))

    def test_mask_query(self, store, release):
        service = QueryService(store)
        answer = service.query(mask=0b00011)
        np.testing.assert_allclose(answer.values, release.marginal_for(0b00011))

    def test_serving_consumes_no_budget(self, store, release):
        service = QueryService(store)
        before = release.allocation
        for mask in release.workload.masks:
            service.query(mask=mask)
        # The release (and its privacy accounting) is untouched: serving is
        # pure post-processing.
        loaded = service.planner("r1").release
        assert loaded.allocation == before
        assert loaded.budget.epsilon == pytest.approx(1.0)

    def test_cache_hit_flagged(self, store):
        service = QueryService(store)
        first = service.query(["a"])
        second = service.query(["a"])
        assert not first.cached
        assert second.cached
        np.testing.assert_allclose(second.values, first.values)
        assert service.stats()["cache"]["hits"] == 1

    def test_cache_disabled(self, store):
        service = QueryService(store, cache_size=0)
        service.query(["a"])
        assert not service.query(["a"]).cached

    def test_uncovered_query_rejected(self, store):
        service = QueryService(store)
        with pytest.raises(ServingError):
            service.query(["a", "b", "c"])  # only 2-way cuboids were released

    def test_unknown_release_rejected(self, store):
        with pytest.raises(ServingError):
            QueryService(store).query(["a"], release_id="missing")

    def test_single_release_mode_rejects_release_id(self, release):
        with pytest.raises(ServingError):
            QueryService(release).query(["a"], release_id="r1")

    def test_invalid_source_type_rejected(self):
        with pytest.raises(ServingError):
            QueryService(42)  # type: ignore[arg-type]


class TestRouting:
    def test_newest_covering_release_wins(self, tmp_path, schema, counts):
        store = ReleaseStore(tmp_path)
        first = release_marginals(counts, all_k_way(schema, 2), budget=1.0, rng=0)
        second = release_marginals(counts, all_k_way(schema, 1), budget=1.0, rng=1)
        store.put(first, release_id="pairs")
        store.put(second, release_id="singles")
        service = QueryService(store)
        # Covered by both; the newer release ("singles") must serve it.
        assert service.query(["a"]).release_id == "singles"
        # Only the older release covers a 2-way marginal.
        assert service.query(["a", "b"]).release_id == "pairs"
        # Explicit pinning overrides routing.
        assert service.query(["a"], release_id="pairs").release_id == "pairs"


    def test_overwrite_retires_stale_planner_and_answers(self, tmp_path, schema, counts):
        # Regression: overwriting a release id through the same store must
        # not leave the service answering from the old vectors.
        store = ReleaseStore(tmp_path)
        first = release_marginals(counts, all_k_way(schema, 2), budget=1.0, rng=0)
        store.put(first, release_id="rel")
        service = QueryService(store)
        before = service.query(["a"]).values
        second = release_marginals(counts * 10.0, all_k_way(schema, 2), budget=1.0, rng=1)
        store.put(second, release_id="rel", overwrite=True)
        after = service.query(["a"]).values
        assert not np.allclose(after, before)
        np.testing.assert_allclose(
            after, QueryService(store).query(["a"]).values
        )

    def test_routing_does_not_load_non_covering_releases(self, tmp_path, schema, counts, monkeypatch):
        # Regression: rejecting a candidate release must not open its files.
        store = ReleaseStore(tmp_path)
        store.put(release_marginals(counts, all_k_way(schema, 2), budget=1.0, rng=0),
                  release_id="pairs")
        store.put(release_marginals(counts, all_k_way(schema, 1), budget=1.0, rng=1),
                  release_id="singles")
        loaded = []
        original = ReleaseStore.get

        def counting_get(self, release_id):
            loaded.append(release_id)
            return original(self, release_id)

        monkeypatch.setattr(ReleaseStore, "get", counting_get)
        service = QueryService(store)
        # Only the older release covers a 2-way query; the newer candidate
        # must be rejected from the index alone.
        assert service.query(["a", "b"]).release_id == "pairs"
        assert loaded == ["pairs"]

    def test_new_release_retires_fast_path_routing(self, tmp_path, schema, counts):
        # Regression: repeated default-routed queries must not stay pinned to
        # the release that was newest when they were first answered.
        store = ReleaseStore(tmp_path)
        store.put(
            release_marginals(counts, all_k_way(schema, 2), budget=1.0, rng=0),
            release_id="pairs",
        )
        service = QueryService(store)
        assert service.query(["a"]).release_id == "pairs"
        assert service.query(["a"]).release_id == "pairs"  # warm the fast path
        store.put(
            release_marginals(counts, all_k_way(schema, 1), budget=1.0, rng=1),
            release_id="singles",
        )
        assert service.query(["a"]).release_id == "singles"

    def test_request_key_lru_eviction_order(self, store):
        # The answer cache is an exact LRU keyed on the request signature:
        # each insert past capacity evicts exactly the least recently *used*
        # entry, and a hit refreshes recency.  (Earlier revisions dropped the
        # oldest half wholesale, which made live signatures miss in bursts.)
        service = QueryService(store, cache_size=4)
        masks = list(store.get("r1").workload.masks)
        for mask in masks[:4]:
            service.query(mask=mask)
        assert len(service.cache) == 4
        # Touch the oldest entry: it becomes the most recent.
        assert service.query(mask=masks[0]).cached
        # The next new signature evicts exactly one entry — the LRU (masks[1]).
        service.query(mask=masks[4])
        assert len(service.cache) == 4
        assert service.stats()["cache"]["evictions"] == 1
        for kept in (masks[0], masks[2], masks[3], masks[4]):
            assert service.query(mask=kept).cached
        assert service.stats()["cache"]["evictions"] == 1
        assert not service.query(mask=masks[1]).cached


class TestBatching:
    def test_batch_matches_single_answers(self, store):
        service = QueryService(store)
        requests = [["a"], ["b"], {"attributes": ["a"], "where": {"b": 1}}, 0b00011]
        batch = QueryService(store).query_batch(requests)
        singles = [
            service.query(["a"]),
            service.query(["b"]),
            service.query(["a"], where={"b": 1}),
            service.query(mask=0b00011),
        ]
        assert len(batch) == 4
        for from_batch, from_single in zip(batch, singles):
            np.testing.assert_allclose(from_batch.values, from_single.values)
            assert from_batch.per_cell_variance == pytest.approx(
                from_single.per_cell_variance
            )

    def test_batch_aggregates_each_source_once(self, store, release, monkeypatch):
        service = QueryService(store)
        planner = service.planner("r1")
        calls = []
        original = type(planner).aggregate

        def counting_aggregate(self, plan):
            calls.append((plan.source_mask, plan.union_mask))
            return original(self, plan)

        monkeypatch.setattr(type(planner), "aggregate", counting_aggregate)
        # Three requests that plan to the same (source, union) pair: the full
        # marginal plus two disjoint slices of it.
        service.query_batch(
            [
                {"attributes": ["a", "b"]},
                {"attributes": ["a"], "where": {"b": 0}},
                {"attributes": ["a"], "where": {"b": 1}},
            ]
        )
        assert len(calls) == len(set(calls))

    def test_batch_uses_cache(self, store):
        service = QueryService(store)
        service.query(["a"])
        batch = service.query_batch([["a"], ["b"]])
        assert batch[0].cached
        assert not batch[1].cached

    def test_batch_request_coercions(self, store, release):
        service = QueryService(store)
        batch = service.query_batch(
            ["a", 0b00011, ("a", "b"), QueryRequest(attributes=("b",))]
        )
        np.testing.assert_allclose(batch[1].values, release.marginal_for(0b00011))
        np.testing.assert_allclose(batch[2].values, release.marginal_for(0b00011))

    def test_stats_counters(self, store):
        service = QueryService(store)
        service.query(["a"])
        service.query_batch([["a"], ["b"]])
        stats = service.stats()
        assert stats["queries"] == 1
        assert stats["batches"] == 1
        assert stats["batched_requests"] == 2
        assert stats["planners"] >= 1
        assert set(stats["cache"]) == {"hits", "misses", "evictions", "hit_rate"}


class TestSlices:
    def test_slice_equals_manual_aggregation(self, store, release):
        service = QueryService(store)
        sliced = service.query(["a"], where={"b": 1})
        # Manual: aggregate the chosen source down to (a, b), keep b = 1.
        source = sliced.plan.source_mask
        union = submarginal(release.marginal_for(source), source, 0b00011)
        np.testing.assert_allclose(sliced.values, union[2:])

    def test_point_query(self, store):
        service = QueryService(store)
        point = service.query([], where={"a": 1, "b": 0})
        assert point.values.shape == (1,)
        assert point.is_point

    def test_predicated_attribute_cannot_be_queried(self, store):
        with pytest.raises(ServingError):
            QueryService(store).query(["a"], where={"a": 1})

    def test_request_cannot_mix_mask_and_attributes(self):
        with pytest.raises(ServingError):
            QueryRequest(attributes=("a",), mask=1)
