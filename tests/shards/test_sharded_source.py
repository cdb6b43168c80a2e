"""Sharded sources: bitwise identity for any shard count and worker count.

The tentpole guarantee of ``repro.shards``: partitioning the ``(codes,
weights)`` arrays by the stable code hash and summing per-shard marginals in
fixed shard order reproduces the unsharded record-native values **bitwise**
— integer tuple counts sum exactly in float64 in any order — for any shard
count S, any worker count, and both executor kinds.  Seeded releases
therefore reproduce exactly no matter how the measurement was parallelised.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import release_marginals
from repro.domain import Dataset, Schema
from repro.exceptions import DataError
from repro.queries import MarginalQuery, MarginalWorkload, all_k_way
from repro.shards import (
    ShardedRecordSource,
    StreamingSourceBuilder,
    partition_codes,
    resolve_shard_count,
    resolve_worker_count,
    shard_of_codes,
)
from repro.sources import RecordSource, as_count_source

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

D = 5
SHARD_COUNTS = (1, 2, 3, 8)

workload_masks = st.lists(
    st.integers(1, (1 << D) - 1), min_size=1, max_size=6, unique=True
)
record_rows = st.lists(st.integers(0, (1 << D) - 1), min_size=1, max_size=60)
strategy_names = st.sampled_from(["I", "Q", "F", "C"])
seeds = st.integers(0, 2**32 - 1)


def make_inputs(masks, rows):
    schema = Schema.binary([f"a{i}" for i in range(D)])
    workload = MarginalWorkload(
        schema, [MarginalQuery(mask, D) for mask in masks], name="random"
    )
    records = np.array(
        [[(code >> bit) & 1 for bit in range(D)] for code in rows], dtype=np.int64
    )
    return workload, Dataset(schema, records, name="sharded-equivalence")


def one_dataset_three_ways():
    """A workload and one dataset of 120 rows as a dataset, its table and
    its count vector."""
    schema = Schema.binary([f"a{i}" for i in range(D)])
    records = np.random.default_rng(7).integers(0, 2, (120, D))
    dataset = Dataset(schema, records)
    table = dataset.contingency_table()
    return all_k_way(schema, 2), (dataset, table, table.counts.copy())


class TestPartition:
    def test_shard_assignment_is_stable_and_total(self):
        codes = np.arange(5000, dtype=np.int64)
        for shards in SHARD_COUNTS:
            ids = shard_of_codes(codes, shards)
            assert np.array_equal(ids, shard_of_codes(codes, shards))
            assert ids.min() >= 0 and ids.max() < shards
        weights = np.ones(codes.shape[0])
        parts = partition_codes(codes, weights, 4)
        assert sum(part[0].shape[0] for part in parts) == codes.shape[0]
        rejoined = np.sort(np.concatenate([part[0] for part in parts]))
        assert np.array_equal(rejoined, codes)

    def test_partitions_stay_sorted(self):
        codes = np.sort(np.random.default_rng(0).integers(0, 1 << 20, 4000))
        codes = np.unique(codes)
        for part_codes, _ in partition_codes(codes, np.ones(codes.shape[0]), 5):
            assert np.all(np.diff(part_codes) > 0)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    @pytest.mark.parametrize("kind", ["empty", "unsorted", "sorted"])
    def test_matches_boolean_selection(self, shards, kind):
        """The sort-and-slice partition gives bitwise the arrays of one
        boolean selection per shard, relative order kept."""
        generator = np.random.default_rng(shards)
        codes = {
            "empty": np.empty(0, dtype=np.int64),
            "unsorted": generator.integers(0, 1 << 40, 3000),
            "sorted": np.unique(generator.integers(0, 1 << 40, 3000)),
        }[kind]
        weights = generator.integers(1, 9, codes.shape[0]).astype(np.float64)
        ids = shard_of_codes(codes, shards)
        parts = partition_codes(codes, weights, shards)
        assert len(parts) == shards
        for shard, (part_codes, part_weights) in enumerate(parts):
            inside = ids == shard
            for actual, expected in ((part_codes, codes[inside]), (part_weights, weights[inside])):
                assert actual.dtype == expected.dtype
                assert np.array_equal(actual, expected)

    def test_resolution_rules(self, monkeypatch):
        import repro.shards.partition as partition

        monkeypatch.setattr(partition, "_cpu_count", lambda: 4)
        assert resolve_shard_count(10, shards=3) == 3
        assert resolve_shard_count(10) == 1  # below the auto threshold
        assert resolve_shard_count(partition.AUTO_SHARD_RECORDS) == 4
        assert resolve_shard_count(10, workers=4) == 4  # workers imply shards
        assert resolve_worker_count(8) == 4  # capped by cores
        assert resolve_worker_count(2, workers=16) == 2  # capped by shards
        with pytest.raises(DataError):
            resolve_shard_count(10, shards=0)
        monkeypatch.setattr(partition, "_cpu_count", lambda: 1)
        assert resolve_shard_count(partition.AUTO_SHARD_RECORDS) == 1

    def test_auto_sharding_kicks_in_above_the_threshold(self, monkeypatch):
        import repro.shards.partition as partition

        monkeypatch.setattr(partition, "AUTO_SHARD_RECORDS", 50)
        monkeypatch.setattr(partition, "_cpu_count", lambda: 4)
        schema = Schema.binary([f"a{i}" for i in range(D)])
        rng = np.random.default_rng(7)
        records = rng.integers(0, 2, (120, D))
        source = Dataset(schema, records).as_source(backend="record")
        assert isinstance(source, ShardedRecordSource)
        assert source.shards == 4
        small = Dataset(schema, records[:10]).as_source(backend="record")
        assert isinstance(small, RecordSource)

    @pytest.mark.parametrize("backend, shards", [("record", None), ("auto", 4)])
    def test_one_layout_for_every_input_kind(self, monkeypatch, backend, shards):
        """A dataset, its table and its count vector resolve to one layout:
        the auto rule counts rows (120 rows, at most 32 distinct, against a
        threshold of 50) and an explicit ``shards=`` holds for each kind."""
        import repro.shards.partition as partition

        monkeypatch.setattr(partition, "AUTO_SHARD_RECORDS", 50)
        monkeypatch.setattr(partition, "_cpu_count", lambda: 4)
        workload, kinds = one_dataset_three_ways()
        sources = [
            as_count_source(data, workload, backend, shards=shards) for data in kinds
        ]
        for source in sources:
            assert isinstance(source, ShardedRecordSource)
            assert source.shards == 4
        full = (1 << D) - 1
        work = [(full, tuple(range(1 << D)))]
        reference = sources[0].marginals_for_batches(work)
        for source in sources[1:]:
            values = source.marginals_for_batches(work)
            for mask in range(1 << D):
                assert np.array_equal(values[mask], reference[mask])

    def test_dense_refuses_shards_for_every_input_kind(self):
        workload, kinds = one_dataset_three_ways()
        for data in kinds:
            with pytest.raises(DataError, match="dense backend"):
                as_count_source(data, workload, "dense", shards=4)


class TestShardedMarginalsMatchUnsharded:
    @SETTINGS
    @given(record_rows, st.sampled_from(SHARD_COUNTS), st.sampled_from([1, 2]))
    def test_source_marginals_bitwise(self, rows, shards, workers):
        codes = np.array(rows, dtype=np.int64)
        base = RecordSource(codes, dimension=D)
        sharded = ShardedRecordSource(
            codes, dimension=D, shards=shards, workers=workers
        )
        assert sharded.distinct_records == base.distinct_records
        assert sharded.total == base.total
        for mask in range(1, 1 << D):
            assert np.array_equal(base.marginal(mask), sharded.marginal(mask))

    @SETTINGS
    @given(workload_masks, record_rows, strategy_names, seeds)
    def test_seeded_releases_bitwise_across_shard_and_worker_counts(
        self, masks, rows, name, seed
    ):
        workload, dataset = make_inputs(masks, rows)
        reference = release_marginals(
            dataset, workload, budget=0.7, strategy=name, backend="record", rng=seed
        )
        for shards, workers in [(1, 1), (2, 2), (3, 1), (8, 2)]:
            sharded = release_marginals(
                dataset,
                workload,
                budget=0.7,
                strategy=name,
                backend="record",
                shards=shards,
                workers=workers,
                rng=seed,
            )
            for left, right in zip(reference.marginals, sharded.marginals):
                assert np.array_equal(left, right, equal_nan=True)

    def test_process_pool_matches_thread_pool(self):
        codes = np.random.default_rng(11).integers(0, 1 << 12, 3000)
        thread = ShardedRecordSource(
            codes, dimension=12, shards=3, workers=2, executor="thread"
        )
        process = ShardedRecordSource(
            codes, dimension=12, shards=3, workers=2, executor="process"
        )
        for mask in (0b1, 0b1111, 0xABC, (1 << 12) - 1):
            assert np.array_equal(thread.marginal(mask), process.marginal(mask))

    def test_fourier_coefficients_bitwise(self):
        codes = np.random.default_rng(3).integers(0, 1 << D, 500)
        base = RecordSource(codes, dimension=D)
        sharded = ShardedRecordSource(codes, dimension=D, shards=4, workers=2)
        masks = [0b11011, 0b111, 0b10001]
        left = base.fourier_coefficients_for_masks(masks)
        right = sharded.fourier_coefficients_for_masks(masks)
        assert left.keys() == right.keys()
        for beta in left:
            assert left[beta] == right[beta]

    def test_dense_vector_matches(self):
        codes = np.random.default_rng(5).integers(0, 1 << 10, 800)
        base = RecordSource(codes, dimension=10)
        sharded = ShardedRecordSource(codes, dimension=10, shards=5, workers=2)
        assert np.array_equal(base.dense_vector(), sharded.dense_vector())

    def test_streaming_builder_build_matches(self):
        codes = np.random.default_rng(9).integers(0, 1 << D, 400)
        builder = StreamingSourceBuilder(dimension=D)
        for chunk in np.array_split(codes, 7):
            builder.add_codes(chunk)
        base = RecordSource(codes, dimension=D)
        for shards in SHARD_COUNTS:
            source = builder.build(shards=shards)
            for mask in (0b1, 0b101, (1 << D) - 1):
                assert np.array_equal(base.marginal(mask), source.marginal(mask))


class TestShardedSourceApi:
    def test_layout_introspection(self):
        codes = np.arange(100, dtype=np.int64)
        source = ShardedRecordSource(codes, dimension=10, shards=4, workers=1)
        assert source.shards == 4
        assert sum(source.shard_sizes) == 100
        assert source.backend == "sharded-record"
        assert "4 shard(s)" in source.describe_layout()
        arrays = source.shard_arrays
        assert len(arrays) == 4
        with pytest.raises(ValueError):
            arrays[0][0][0] = 1  # read-only views

    def test_sharding_requires_record_backend(self):
        schema = Schema.binary([f"a{i}" for i in range(D)])
        dataset = Dataset(schema, np.zeros((4, D), dtype=np.int64))
        with pytest.raises(DataError, match="dense"):
            dataset.as_source(backend="dense", shards=4)

    def test_explicit_shards_force_record_on_small_domains(self):
        schema = Schema.binary([f"a{i}" for i in range(D)])
        dataset = Dataset(schema, np.zeros((4, D), dtype=np.int64))
        source = dataset.as_source(shards=3)
        assert isinstance(source, ShardedRecordSource)
        assert source.shards == 3

    def test_invalid_shard_count(self):
        with pytest.raises(DataError):
            ShardedRecordSource(np.arange(4), dimension=3, shards=0)

    def test_invalid_knobs_fail_even_on_dense_auto_domains(self):
        """Regression: a small domain resolves to the dense backend, which
        never consults the shard knobs — an invalid knob must still be
        rejected instead of silently ignored."""
        schema = Schema.binary([f"a{i}" for i in range(D)])
        dataset = Dataset(schema, np.zeros((4, D), dtype=np.int64))
        with pytest.raises(DataError, match="shard count"):
            dataset.as_source(shards=0)
        with pytest.raises(DataError, match="worker count"):
            dataset.as_source(shards=2, workers=0)
