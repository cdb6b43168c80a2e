"""End-to-end fault recovery: injected failures leave release bytes unchanged.

The retried units (shard kernels, store reads) are pure and the dispatch
layer consumes shard results in fixed shard order, so a release that
survives injected faults must be **bitwise identical** to a clean run —
the property every test here pins with a marginal-bytes fingerprint.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import release_marginals
from repro.data import synthetic_nltcs
from repro.exceptions import ShardError
from repro.queries import all_k_way
from repro.resilience import FaultPlan, FaultSpec, fault_injection
from repro.store import open_source, write_source


def fingerprint(marginals) -> str:
    digest = hashlib.sha256()
    for marginal in marginals:
        digest.update(
            np.ascontiguousarray(np.asarray(marginal, dtype=np.float64)).tobytes()
        )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def inputs():
    dataset = synthetic_nltcs(600, rng=9)
    workload = all_k_way(dataset.schema, 2)
    return dataset, workload


@pytest.fixture(scope="module")
def clean_pin(inputs):
    dataset, workload = inputs
    source = dataset.as_source(backend="record", shards=4, workers=2)
    release = release_marginals(source, workload, budget=1.0, strategy="Q", rng=21)
    return fingerprint(release.marginals)


def _release_fingerprint(dataset, workload, **source_kwargs):
    source = dataset.as_source(backend="record", **source_kwargs)
    release = release_marginals(source, workload, budget=1.0, strategy="Q", rng=21)
    return fingerprint(release.marginals)


class TestShardTaskRecovery:
    def test_pooled_dispatch_retries_bitwise(self, inputs, clean_pin):
        dataset, workload = inputs
        plan = FaultPlan([FaultSpec("shards.task", hits=(1, 3, 5))])
        with fault_injection(plan) as injector:
            pin = _release_fingerprint(dataset, workload, shards=4, workers=2)
        assert injector.injected("shards.task") == 3
        assert pin == clean_pin

    def test_serial_dispatch_retries_bitwise(self, inputs, clean_pin):
        dataset, workload = inputs
        plan = FaultPlan([FaultSpec("shards.task", hits=(1, 2))])
        with fault_injection(plan) as injector:
            pin = _release_fingerprint(dataset, workload, shards=4, workers=1)
        assert injector.injected("shards.task") == 2
        assert pin == clean_pin

    def test_exhausted_retries_surface_a_targeted_shard_error(self, inputs):
        dataset, workload = inputs
        # Hit the same shard on every attempt: the retry budget (3) runs out.
        plan = FaultPlan([FaultSpec("shards.task", hits=tuple(range(1, 40)))])
        with fault_injection(plan):
            with pytest.raises(ShardError, match=r"kind='thread'"):
                _release_fingerprint(dataset, workload, shards=4, workers=2)


class TestPoolWorkerRecovery:
    def test_broken_pool_is_rebuilt_and_replayed_bitwise(self, inputs):
        dataset, workload = inputs
        reference = _release_fingerprint(
            dataset, workload, shards=4, workers=2, executor="process"
        )
        plan = FaultPlan([FaultSpec("pool.worker", hits=(2,))])
        with fault_injection(plan) as injector:
            pin = _release_fingerprint(
                dataset, workload, shards=4, workers=2, executor="process"
            )
        assert injector.injected("pool.worker") == 1
        assert pin == reference

    def test_second_pool_break_names_the_configuration(self, inputs):
        dataset, workload = inputs
        # The pool is rebuilt once; a fault storm that keeps breaking it must
        # surface the targeted error naming workers/kind and the escape hatch.
        plan = FaultPlan([FaultSpec("pool.worker", hits=tuple(range(1, 60)))])
        with fault_injection(plan):
            with pytest.raises(ShardError, match="kind='process'.*thread pool|thread pool"):
                _release_fingerprint(
                    dataset, workload, shards=4, workers=2, executor="process"
                )


class TestStoreRecovery:
    def test_mapped_reads_retry_bitwise(self, tmp_path, inputs, clean_pin):
        dataset, workload = inputs
        reference = dataset.as_source(backend="record")
        path = write_source(
            tmp_path / "src",
            reference.codes,
            reference.weights,
            dimension=dataset.schema.total_bits,
            schema=dataset.schema,
            shards=4,
        )
        plan = FaultPlan([FaultSpec("store.read", hits=(1, 4))])
        with fault_injection(plan) as injector:
            mapped = open_source(path, workers=2)
            release = release_marginals(
                mapped, workload, budget=1.0, strategy="Q", rng=21
            )
        assert injector.injected("store.read") == 2
        assert fingerprint(release.marginals) == clean_pin

    def test_open_verify_retries_transient_faults(self, tmp_path, inputs):
        dataset, _ = inputs
        reference = dataset.as_source(backend="record")
        path = write_source(
            tmp_path / "src",
            reference.codes,
            reference.weights,
            dimension=dataset.schema.total_bits,
            schema=dataset.schema,
            shards=3,
        )
        plan = FaultPlan([FaultSpec("store.open", hits=(1,))])
        with fault_injection(plan) as injector:
            source = open_source(path, verify=True)
        assert injector.injected("store.open") == 1
        assert source.distinct_records == reference.distinct_records

    def test_spill_merge_faults_propagate_uncorrupted(self, inputs):
        # The merge is not retryable mid-stream (the iterator's positions
        # advance); the site exists to prove a fault fails the ingest cleanly
        # rather than yielding a torn chunk.
        from repro.exceptions import TransientFault
        from repro.store.spill import merge_sorted_runs

        runs = [
            (np.arange(0, 100, 2, dtype=np.int64), np.ones(50)),
            (np.arange(1, 100, 2, dtype=np.int64), np.ones(50)),
        ]
        plan = FaultPlan([FaultSpec("spill.merge", hits=(1,))])
        with fault_injection(plan):
            with pytest.raises(TransientFault):
                list(merge_sorted_runs(runs, chunk_entries=32))


class TestFaultPlanProperty:
    @settings(max_examples=12, deadline=None)
    @given(
        hits=st.sets(st.integers(min_value=1, max_value=8), min_size=1, max_size=2),
        seed=st.integers(min_value=0, max_value=2**16),
        site=st.sampled_from(["shards.task", "store.read"]),
    )
    def test_any_retryable_fault_plan_leaves_release_bytes_unchanged(
        self, inputs, clean_pin, hits, seed, site
    ):
        """Property: a FaultPlan whose faults stay within the retry budget
        (no more than 2 scheduled hits, 3 attempts per shard) never changes
        the released bytes."""
        dataset, workload = inputs
        plan = FaultPlan([FaultSpec(site, hits=tuple(sorted(hits)))], seed=seed)
        with fault_injection(plan):
            pin = _release_fingerprint(dataset, workload, shards=4, workers=2)
        assert pin == clean_pin
