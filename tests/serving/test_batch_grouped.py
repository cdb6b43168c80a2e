"""Grouped/concurrent batch serving is bitwise identical to the serial loop.

The grouped ``query_batch`` path re-orders the work aggressively — one
aggregation per (release, source cuboid, union target), one vectorised gather
per predicate shape, concurrent dispatch of independent groups — but every
answer must stay byte-for-byte what the plain per-query loop of
:mod:`serial_reference` produces.  The
property is pinned here for random schemas/workloads/predicates/batch orders,
on a release built under retryable injected faults, with a quarantined
cuboid in play, and (sha256-pinned) on a seeded d = 32 store round trip.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from serial_reference import SerialReference

from repro.core.engine import release_marginals
from repro.data import synthetic_nltcs
from repro.domain import Dataset, Schema
from repro.queries import MarginalQuery, MarginalWorkload, all_k_way
from repro.resilience import FaultPlan, FaultSpec, fault_injection
from repro.serving.service import QueryRequest, QueryService
from repro.serving.store import ReleaseStore
from tests.store_files import corrupt_marginal

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

DIMENSION = 5
NAMES = [f"x{i}" for i in range(DIMENSION)]

workload_masks = st.lists(
    st.integers(1, (1 << DIMENSION) - 1), min_size=1, max_size=6, unique=True
)


def _answers_digest(answers, *, with_release_id: bool = True) -> str:
    """sha256 over every answer's value bytes, plan and provenance."""
    digest = hashlib.sha256()
    for answer in answers:
        meta = (
            answer.release_id if with_release_id else None,
            answer.query_mask,
            answer.fixed_mask,
            answer.fixed_bits,
            answer.plan.source_mask,
            answer.plan.source_position,
            answer.plan.expansion,
            answer.plan.degraded,
        )
        digest.update(repr(meta).encode())
        digest.update(np.float64(answer.per_cell_variance).tobytes())
        digest.update(np.ascontiguousarray(answer.values, dtype=np.float64).tobytes())
    return digest.hexdigest()


def _random_requests(names, masks, rng, count):
    """Coverable random requests: marginals, slices and points, mixed."""
    requests = []
    for _ in range(count):
        source = int(masks[int(rng.integers(len(masks)))])
        target = source & int(rng.integers(0, 1 << len(names)))
        fixed_mask = target & int(rng.integers(0, 1 << len(names)))
        query_mask = target & ~fixed_mask
        where = {
            names[bit]: int(rng.integers(0, 2))
            for bit in range(len(names))
            if (fixed_mask >> bit) & 1
        }
        requests.append(QueryRequest(mask=query_mask, where=where or None))
    return requests


def _build_release(masks, seed, epsilon, strategy="F"):
    schema = Schema.binary(NAMES)
    workload = MarginalWorkload(
        schema, [MarginalQuery(mask, DIMENSION) for mask in masks]
    )
    counts = np.random.default_rng(seed).integers(0, 40, size=schema.domain_size)
    return release_marginals(
        counts.astype(np.float64), workload, budget=epsilon, strategy=strategy, rng=seed
    )


class TestGroupedEqualsSerial:
    @SETTINGS
    @given(
        masks=workload_masks,
        seed=st.integers(0, 2**16),
        epsilon=st.floats(min_value=0.05, max_value=4.0),
        strategy=st.sampled_from(["F", "Q"]),
        request_seed=st.integers(0, 2**16),
        count=st.integers(1, 24),
        workers=st.sampled_from([1, 2, 3]),
    )
    def test_bitwise_identical_for_random_workloads_and_batch_orders(
        self, masks, seed, epsilon, strategy, request_seed, count, workers
    ):
        release = _build_release(masks, seed, epsilon, strategy)
        rng = np.random.default_rng(request_seed)
        requests = _random_requests(NAMES, masks, rng, count)
        serial = SerialReference(release).answers(requests)
        grouped = QueryService(
            release, cache_size=0, batch_workers=workers
        ).query_batch(requests)
        assert _answers_digest(grouped) == _answers_digest(serial)
        # The answer cache must not change the served bytes either.
        cached = QueryService(release, batch_workers=workers).query_batch(requests)
        assert _answers_digest(cached) == _answers_digest(serial)

    def test_repeated_batches_reuse_plans_and_routes(self, release):
        service = QueryService(release, cache_size=0, batch_workers=2)
        requests = [["a"], ["b"], {"attributes": ["a"], "where": {"b": 1}}]
        first = service.query_batch(requests)
        second = service.query_batch(requests)
        for left, right in zip(first, second):
            np.testing.assert_array_equal(left.values, right.values)
        stats = service.stats()
        assert stats["plan_cache"]["hits"] >= 2  # second batch re-used the plans


class TestDegradedBatch:
    @pytest.fixture
    def r1_store(self, tmp_path, release) -> ReleaseStore:
        store = ReleaseStore(tmp_path / "store")
        store.put(release, release_id="r1")
        return store

    def test_grouped_equals_serial_with_a_quarantined_cuboid(
        self, tmp_path, r1_store, release
    ):
        # Corrupt the cuboid that serves ["a"]: both paths must quarantine it
        # and fall back to the same wider source, byte for byte.
        position = QueryService(r1_store).query(["a"]).plan.source_position
        corrupt_marginal(r1_store.root, "r1", position, release)

        # No request's union may be {a, b}: the corrupt cuboid is its only
        # cover (the workload is all 2-ways), so that query rightly fails.
        requests = [
            ["a"],
            ["b"],
            {"attributes": ["a"], "where": {"c": 1}},
            ["a", "c"],
            [],
            {"where": {"a": 1}},
            ["a"],
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reference = SerialReference(ReleaseStore(r1_store.root, create=False))
            serial = reference.answers(requests)
            grouped_service = QueryService(
                ReleaseStore(r1_store.root, create=False),
                cache_size=0,
                batch_workers=2,
            )
            grouped = grouped_service.query_batch(requests)
        assert _answers_digest(grouped) == _answers_digest(serial)
        assert any(answer.degraded for answer in grouped)
        assert not grouped_service.health()["ok"]
        assert grouped_service.health()["quarantined"] == {
            "r1": [hex(mask) for mask in sorted(reference.quarantined["r1"])]
        }


class TestFaultedBuildBatch:
    def test_batch_paths_agree_on_a_release_built_under_retryable_faults(self, tmp_path):
        dataset = synthetic_nltcs(300, rng=9)
        workload = all_k_way(dataset.schema, 2)

        def build():
            source = dataset.as_source(backend="record", shards=4, workers=2)
            return release_marginals(source, workload, budget=1.0, strategy="Q", rng=21)

        clean = build()
        plan = FaultPlan([FaultSpec("shards.task", hits=(1, 3))])
        with fault_injection(plan) as injector:
            faulted = build()
        assert injector.injected("shards.task") == 2

        store = ReleaseStore(tmp_path / "store")
        store.put(faulted)
        names = list(dataset.schema.names)
        rng = np.random.default_rng(17)
        requests = _random_requests(
            names, [query.mask for query in workload.queries], rng, 40
        )
        serial = SerialReference(ReleaseStore(store.root, create=False)).answers(requests)
        grouped = QueryService(
            ReleaseStore(store.root, create=False), cache_size=0, batch_workers=2
        ).query_batch(requests)
        assert _answers_digest(grouped) == _answers_digest(serial)
        # The retried build is bitwise identical to a clean one, so serving
        # the faulted release answers exactly like serving the clean release.
        clean_answers = QueryService(clean, cache_size=0).query_batch(requests)
        for left, right in zip(grouped, clean_answers):
            np.testing.assert_array_equal(left.values, right.values)


class TestWideStorePin:
    #: sha256 over the grouped batch answers of the seeded d = 32 round trip
    #: below (values, plans, provenance).  Seeded release + deterministic
    #: serving => this digest is stable; a change means the serving path no
    #: longer reproduces its bytes.
    EXPECTED = "f00abc936ab9115fb24958c416d38045d1a90f89ca449eed653c37f01aca38f8"

    def _requests(self):
        names = [f"a{i:02d}" for i in range(32)]
        requests = [QueryRequest(mask=1 << i) for i in range(0, 32, 3)]
        requests += [
            QueryRequest(mask=(1 << i) | (1 << j))
            for i in range(4)
            for j in range(i + 1, 4)
        ]
        requests += [
            QueryRequest(mask=1 << 0, where={names[1]: 1}),
            QueryRequest(mask=0, where={names[0]: 1, names[1]: 0, names[2]: 1}),
            QueryRequest(mask=0b110, where={names[0]: 0}),
            QueryRequest(mask=1 << 31),
        ]
        return requests

    def test_seeded_d32_round_trip_is_pinned(self, tmp_path):
        schema = Schema.binary([f"a{i:02d}" for i in range(32)])
        rng = np.random.default_rng(2013)
        records = (rng.random((1500, 32)) < 0.35).astype(np.int64)
        dataset = Dataset(schema, records, name="wide-32")
        masks = [1 << i for i in range(32)]
        masks += [(1 << i) | (1 << j) for i in range(6) for j in range(i + 1, 6)]
        masks += [0b111, (1 << 31) | (1 << 15) | 1]
        workload = MarginalWorkload(
            schema, [MarginalQuery(mask, 32) for mask in masks], name="wide-mixed"
        )
        release = release_marginals(
            dataset, workload, budget=1.0, strategy="F", rng=5
        )
        store = ReleaseStore(tmp_path / "store")
        rid = store.put(release, release_id="wide")
        assert rid == "wide"

        service = QueryService(
            ReleaseStore(store.root, create=False), cache_size=0, batch_workers=2
        )
        requests = self._requests()
        grouped = service.query_batch(requests)
        serial = SerialReference(ReleaseStore(store.root, create=False)).answers(requests)
        digest = _answers_digest(grouped)
        assert digest == _answers_digest(serial)
        assert digest == self.EXPECTED
