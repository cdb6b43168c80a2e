"""Thread-safety of the service's answer cache, plan cache and serving state.

The asyncio serving tier dispatches ``query_batch`` onto a thread pool, so
the answer LRU (an ``OrderedDict``), each planner's resolved-plan memo and
the routing state are hit from many threads at once, while ``/readyz`` and
``/statsz`` read ``health()``/``stats()`` on the event-loop thread.  The
caches are shrunk here to force constant eviction churn, and corrupt cuboids
are quarantined mid-traffic; the service must stay exception-free and keep
every answer bitwise identical to the serial reference.
"""

from __future__ import annotations

import hashlib
import sys
import threading
import warnings
from typing import List

import pytest
from serial_reference import SerialReference

import repro.serving.planner as planner_module
from repro.serving.service import QueryRequest, QueryService
from repro.serving.store import ReleaseStore
from tests.store_files import corrupt_marginal

THREADS = 8
ROUNDS = 30

ATTRS = ["a", "b", "c", "d", "e"]


def _batch_for(index: int) -> List[dict]:
    """A mixed batch whose shape varies per call (keeps the caches churning)."""
    batch = []
    for j in range(6):
        first = ATTRS[(index + j) % 5]
        second = ATTRS[(index + j + 1 + j % 3) % 5]
        if first == second:
            batch.append({"attributes": (first,)})
        else:
            batch.append({"attributes": (first, second)})
        batch.append({"attributes": (first,), "where": {ATTRS[(index + j + 2) % 5]: j % 2}})
    return batch


def _coverable_batch_for(index: int) -> List[dict]:
    """Marginals and points over at most one attribute each.

    Every such query has four covering 2-way cuboids, so it stays answerable
    after a few cuboids are quarantined."""
    batch: List[dict] = [{"attributes": ()}]
    for j in range(5):
        name = ATTRS[(index + j) % 5]
        batch.append({"attributes": (name,)})
        batch.append({"where": {name: (index + j) % 2}})
    return batch


def _digest(answers) -> str:
    hasher = hashlib.sha256()
    for answer in answers:
        hasher.update(answer.values.tobytes())
        hasher.update(str(answer.query_mask).encode())
        hasher.update(str(answer.plan.source_mask).encode())
        hasher.update(str(answer.plan.degraded).encode())
    return hasher.hexdigest()


def _run_threads(threads: List[threading.Thread], *, switch_interval: float = 1e-5) -> None:
    """Start and join ``threads`` with a shortened thread switch interval.

    Callers load the release before: numpy parses ``.npy`` headers with
    ``ast.literal_eval``, and CPython 3.11's parser is not safe against
    thread switches this frequent (``SystemError: AST constructor recursion
    depth mismatch``)."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(switch_interval)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


@pytest.fixture
def store(tmp_path, release) -> ReleaseStore:
    store = ReleaseStore(tmp_path / "store", create=True)
    store.put(release)
    return store


class TestConcurrentQueryBatch:
    def test_eight_threads_with_tiny_caches_match_the_serial_answers(
        self, store, monkeypatch
    ):
        # Shrink both caches far below the working set so every round evicts.
        monkeypatch.setattr(planner_module, "PLAN_CACHE_ENTRIES", 4)
        service = QueryService(store, cache_size=2)
        service.planner()

        reference = SerialReference(store)
        expected = {
            index: _digest(reference.answers(_batch_for(index)))
            for index in range(THREADS)
        }

        errors: List[BaseException] = []
        mismatches: List[str] = []
        barrier = threading.Barrier(THREADS)

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=30)
                for _ in range(ROUNDS):
                    answers = service.query_batch(_batch_for(index))
                    if _digest(answers) != expected[index]:
                        mismatches.append(f"thread {index} diverged")
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error); import traceback; traceback.print_exc()

        _run_threads(
            [threading.Thread(target=worker, args=(index,)) for index in range(THREADS)]
        )

        assert errors == []
        assert mismatches == []
        # The cache respected its (tiny) cap despite concurrent inserts.
        assert len(service.cache) <= 2
        assert service.stats()["cache"]["evictions"] > 0

    def test_cache_lookups_race_batch_inserts(self, store):
        """``cached_answers`` (the HTTP tier's event-loop lookup) against
        executor-thread inserts evicting from a cache smaller than the
        working set: every hit is the serial answer, and each query is
        counted once, by whichever of the two answered it."""
        queries = [{"attributes": (name,)} for name in ATTRS] + [
            {"attributes": (name,), "where": {ATTRS[(i + 1) % 5]: i % 2}}
            for i, name in enumerate(ATTRS)
        ]
        requests = [
            QueryRequest(attributes=query["attributes"], where=query.get("where"))
            for query in queries
        ]
        reference = SerialReference(store)
        expected = [_digest(reference.answers([query])) for query in queries]
        service = QueryService(store, cache_size=4)
        service.planner()
        counted = [0] * THREADS
        errors: List[BaseException] = []
        mismatches: List[str] = []
        barrier = threading.Barrier(THREADS)

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=30)
                for step in range(ROUNDS * 10):
                    position = (index * 7 + step * 3) % len(queries)
                    if index % 2:
                        answers = service.cached_answers([requests[position]])
                        if answers is None:
                            continue
                    else:
                        answers = service.query_batch([queries[position]])
                    counted[index] += 1
                    if _digest(answers) != expected[position]:
                        mismatches.append(f"thread {index} query {position} diverged")
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        _run_threads(
            [threading.Thread(target=worker, args=(index,)) for index in range(THREADS)]
        )

        assert errors == []
        assert mismatches == []
        cache = service.stats()["cache"]
        assert cache["hits"] + cache["misses"] == sum(counted)
        assert sum(counted[1::2]) > 0  # the loop-side lookups did hit
        assert len(service.cache) <= 4

    def test_concurrent_queries_with_invalidation_churn(self, store):
        """invalidate() swaps the serving state mid-flight without errors."""
        service = QueryService(store, cache_size=8)
        stop = threading.Event()
        errors: List[BaseException] = []

        def querier(index: int) -> None:
            try:
                while not stop.is_set():
                    service.query_batch(_batch_for(index))
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        def invalidator() -> None:
            try:
                while not stop.is_set():
                    service.invalidate()
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        threads = [
            threading.Thread(target=querier, args=(index,)) for index in range(4)
        ] + [threading.Thread(target=invalidator)]
        timer = threading.Timer(1.5, stop.set)
        timer.start()
        # Every invalidate reloads the release: keep the default interval.
        _run_threads(threads, switch_interval=sys.getswitchinterval())
        timer.cancel()
        assert errors == []


class TestQuarantineUnderTraffic:
    @pytest.fixture
    def corrupt_store(self, tmp_path, release) -> ReleaseStore:
        """A store whose sources of ``a`` and ``d`` are corrupted in place."""
        root = tmp_path / "cstore"
        store = ReleaseStore(root)
        rid = store.put(release)
        probe = QueryService(ReleaseStore(root, create=False))
        positions = {probe.query([name]).plan.source_position for name in ("a", "d")}
        for position in positions:
            corrupt_marginal(root, rid, position, release)
        return ReleaseStore(root, create=False)

    def test_eight_threads_quarantine_while_health_is_polled(self, corrupt_store):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            reference = SerialReference(corrupt_store)
            expected = {
                index: _digest(reference.answers(_coverable_batch_for(index)))
                for index in range(THREADS)
            }
        assert reference.quarantined  # the traffic does hit corrupt sources

        service = QueryService(corrupt_store, cache_size=16, batch_workers=2)
        service.planner()
        errors: List[BaseException] = []
        mismatches: List[str] = []
        barrier = threading.Barrier(THREADS + 1)
        done = threading.Event()

        def worker(index: int) -> None:
            try:
                barrier.wait(timeout=30)
                for _ in range(ROUNDS):
                    answers = service.query_batch(_coverable_batch_for(index))
                    if _digest(answers) != expected[index]:
                        mismatches.append(f"thread {index} diverged")
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        def poller() -> None:
            try:
                barrier.wait(timeout=30)
                while not done.is_set():
                    health = service.health()
                    for masks in health["quarantined"].values():  # type: ignore[union-attr]
                        list(masks)
                    service.stats()
            except BaseException as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        workers = [
            threading.Thread(target=worker, args=(index,)) for index in range(THREADS)
        ]
        polling = threading.Thread(target=poller)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            polling.start()
            _run_threads(workers)
            done.set()
            polling.join(timeout=30)
        assert not polling.is_alive()

        assert errors == []
        assert mismatches == []
        health = service.health()
        assert not health["ok"]
        assert health["quarantined"] == {
            rid: [hex(mask) for mask in sorted(masks)]
            for rid, masks in reference.quarantined.items()
        }
        # One event per quarantined cuboid, however many threads hit it.
        assert health["quarantine_events"] == sum(
            len(masks) for masks in reference.quarantined.values()
        )
