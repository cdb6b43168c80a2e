"""Unit tests for the count-source backends (repro.sources)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.domain import ContingencyTable, Dataset, Schema
from repro.exceptions import DataError, WorkloadError
from repro.fourier import fwht
from repro.plan.cost import cost_marginal_batches
from repro.plan.lattice import MarginalBatch
from repro.queries import all_k_way
from repro.sources import (
    DENSE_LIMIT_BITS,
    DenseCubeSource,
    RecordSource,
    as_count_source,
    base,
    ensure_dense_allowed,
    select_backend,
)

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

D = 6
count_vectors = st.lists(st.integers(0, 60), min_size=1 << D, max_size=1 << D)
masks = st.integers(0, (1 << D) - 1)
mask_lists = st.lists(st.integers(0, (1 << D) - 1), min_size=1, max_size=5, unique=True)


def both_sources(counts):
    vector = np.asarray(counts, dtype=np.float64)
    return DenseCubeSource(vector), RecordSource.from_vector(vector)


def hadamard_coefficients(vector, requested):
    """Reference: the full orthonormal FWHT read at every submask of ``requested``."""
    full = fwht(np.asarray(vector, dtype=np.float64))
    return {
        beta: float(full[beta])
        for beta in range(full.shape[0])
        if any(beta & mask == beta for mask in requested)
    }


class TestMarginals:
    @SETTINGS
    @given(count_vectors, masks)
    def test_backends_match_the_contingency_table(self, counts, mask):
        dense, record = both_sources(counts)
        table = ContingencyTable(Schema.binary([f"a{i}" for i in range(D)]), counts)
        expected = table.marginal_by_mask(mask)
        assert np.array_equal(dense.marginal(mask), expected)
        assert np.array_equal(record.marginal(mask), expected)

    @SETTINGS
    @given(count_vectors)
    def test_totals_and_domain_agree(self, counts):
        dense, record = both_sources(counts)
        assert dense.total == record.total == float(sum(counts))
        assert dense.domain_size == record.domain_size == 1 << D

    def test_marginal_returns_fresh_arrays(self):
        dense, record = both_sources(np.arange(1 << D))
        for source in (dense, record):
            first = source.marginal(0b11)
            first[:] = -1.0
            assert not np.array_equal(first, source.marginal(0b11))

    def test_invalid_mask_raises(self):
        dense, record = both_sources(np.ones(1 << D))
        for source in (dense, record):
            with pytest.raises(DataError):
                source.marginal(1 << D)
            with pytest.raises(DataError):
                source.marginal(-1)


class TestFourierCoefficients:
    @SETTINGS
    @given(count_vectors, mask_lists)
    def test_backends_match_the_hadamard_helper(self, counts, requested):
        """Every submask of a requested mask, read off the full orthonormal FWHT."""
        dense, record = both_sources(counts)
        expected = hadamard_coefficients(counts, requested)
        coefficients = dense.fourier_coefficients_for_masks(requested)
        assert sorted(coefficients) == sorted(expected)
        assert np.allclose(
            [coefficients[beta] for beta in sorted(expected)],
            [expected[beta] for beta in sorted(expected)],
        )
        # The record backend shares the dense arithmetic: bitwise equal.
        assert record.fourier_coefficients_for_masks(requested) == coefficients


class TestRecordSource:
    def test_deduplicates_and_sums_weights(self):
        source = RecordSource(np.array([5, 1, 5, 5, 1, 9]), dimension=4)
        assert source.distinct_records == 3
        assert source.codes.tolist() == [1, 5, 9]
        assert source.weights.tolist() == [2.0, 3.0, 1.0]
        assert source.total == 6.0

    def test_explicit_weights_are_aggregated(self):
        source = RecordSource(
            np.array([3, 3, 7]), np.array([1.5, 2.5, 1.0]), dimension=3
        )
        assert source.codes.tolist() == [3, 7]
        assert source.weights.tolist() == [4.0, 1.0]

    def test_from_vector_keeps_only_nonzero_cells(self):
        vector = np.zeros(16)
        vector[[2, 9]] = [4.0, 1.0]
        source = RecordSource.from_vector(vector)
        assert source.distinct_records == 2
        assert np.array_equal(source.dense_vector(), vector)

    def test_from_records_encodes_through_the_schema(self):
        schema = Schema.binary(["a", "b", "c"])
        source = RecordSource.from_records(schema, [[1, 0, 1], [1, 0, 1], [0, 1, 0]])
        assert source.dimension == 3
        assert source.total == 3.0
        assert np.array_equal(
            source.dense_vector(),
            ContingencyTable.from_records(schema, np.array([[1, 0, 1], [1, 0, 1], [0, 1, 0]])).counts,
        )

    def test_codes_outside_domain_raise(self):
        with pytest.raises(DataError):
            RecordSource(np.array([8]), dimension=3)

    def test_weight_shape_mismatch_raises(self):
        with pytest.raises(DataError):
            RecordSource(np.array([1, 2]), np.array([1.0]), dimension=3)

    def test_wide_domain_never_allocates_but_guards_dense_paths(self):
        source = RecordSource(np.array([0, 1 << 40, 123]), dimension=62)
        assert source.domain_size == 1 << 62
        assert source.marginal(0b1).tolist() == [2.0, 1.0]
        with pytest.raises(DataError, match="record-native"):
            source.dense_vector()
        with pytest.raises(DataError, match="record-native"):
            source.marginal((1 << 40) - 1)

    def test_empty_source_still_returns_float64(self):
        source = RecordSource(np.array([], dtype=np.int64), dimension=4)
        assert source.marginal(0b1010).dtype == np.float64
        assert source.marginal(0b1010).tolist() == [0.0] * 4
        assert source.dense_vector().dtype == np.float64

    def test_batch_roots_track_record_count(self):
        # The cost model is the one judge of a record source's batch roots:
        # 8 root cells are cheaper than a second pass over 100 records, 1M
        # root cells far dearer.
        source = RecordSource(np.arange(100), dimension=40)
        small = MarginalBatch(root=0b111, members=(0b11, 0b100))
        wide = MarginalBatch(root=(1 << 20) - 1, members=(0b111, 0b111 << 17))
        assert [cost.use_root for cost in cost_marginal_batches(source, [small, wide])] == [
            True,
            False,
        ]


class TestGuards:
    def test_ensure_dense_allowed_below_limit(self):
        ensure_dense_allowed(DENSE_LIMIT_BITS)  # no raise

    def test_ensure_dense_allowed_above_limit(self):
        with pytest.raises(DataError, match="record-native"):
            ensure_dense_allowed(DENSE_LIMIT_BITS + 1)

    def test_select_backend_auto_switches_at_the_limit(self):
        assert select_backend(DENSE_LIMIT_BITS, "auto") == "dense"
        assert select_backend(DENSE_LIMIT_BITS + 1, "auto") == "record"

    def test_select_backend_dense_above_limit_raises(self):
        with pytest.raises(DataError):
            select_backend(DENSE_LIMIT_BITS + 1, "dense")

    def test_unknown_backend_raises(self):
        with pytest.raises(DataError):
            select_backend(4, "sparse")


class TestDatasetIntegration:
    @pytest.fixture
    def dataset(self):
        schema = Schema.binary(["a", "b", "c", "d"])
        rng = np.random.default_rng(7)
        return Dataset(schema, rng.integers(0, 2, size=(200, 4)), name="unit")

    def test_encoded_counts_cached_and_shared(self, dataset):
        codes, weights = dataset.encoded_counts()
        assert codes is dataset.encoded_counts()[0]
        assert float(weights.sum()) == float(len(dataset))
        source = dataset.as_source(backend="record")
        assert np.array_equal(source.codes, codes)

    def test_dense_cube_matches_record_marginals(self, dataset):
        dense = dataset.as_source(backend="dense")
        record = dataset.as_source(backend="record")
        for mask in range(dataset.schema.domain_size):
            assert np.array_equal(dense.marginal(mask), record.marginal(mask))

    def test_contingency_table_built_from_dedup_cache(self, dataset):
        table = dataset.contingency_table()
        reference = ContingencyTable.from_records(dataset.schema, dataset.records)
        assert np.array_equal(table.counts, reference.counts)

    def test_dense_wraps_an_existing_table_above_the_limit(self, monkeypatch):
        """The dense limit guards a dataset's new table build only: once the
        table exists, wrapping it allocates nothing (simulated with a tiny
        limit so the test does not allocate a >2**26-cell vector)."""
        schema = Schema.binary(["a", "b", "c", "d"])
        dataset = Dataset(schema, np.zeros((2, 4), dtype=np.int64))
        dataset.contingency_table()
        monkeypatch.setattr(base, "DENSE_LIMIT_BITS", 3)
        assert dataset.as_source(backend="dense").backend == "dense"
        with pytest.raises(DataError):
            Dataset(schema, np.zeros((2, 4), dtype=np.int64)).as_source(
                backend="dense"
            )

    def test_wide_dataset_refuses_dense_table(self):
        schema = Schema.binary([f"a{i}" for i in range(DENSE_LIMIT_BITS + 4)])
        records = np.zeros((3, len(schema)), dtype=np.int64)
        records[1, 5] = 1
        wide = Dataset(schema, records)
        with pytest.raises(DataError, match="record-native"):
            wide.contingency_table()
        assert wide.as_source().backend == "record"
        assert wide.marginal(["a5"]).tolist() == [2.0, 1.0]

    def test_table_as_source_round_trip(self, dataset):
        table = dataset.contingency_table()
        assert np.array_equal(
            table.as_source("record").dense_vector(), table.counts
        )
        assert table.as_source().backend == "dense"


class TestResolution:
    @pytest.fixture
    def workload(self):
        return all_k_way(Schema.binary(["a", "b", "c", "d"]), 2)

    def test_all_input_kinds_resolve(self, workload):
        rng = np.random.default_rng(0)
        dataset = Dataset(workload.schema, rng.integers(0, 2, size=(50, 4)))
        table = dataset.contingency_table()
        vector = table.counts
        for data in (dataset, table, vector, dataset.as_source()):
            source = as_count_source(data, workload)
            assert source.dimension == workload.dimension

    def test_explicit_record_backend(self, workload):
        vector = np.zeros(workload.domain_size)
        vector[3] = 5.0
        source = as_count_source(vector, workload, backend="record")
        assert source.backend == "record"
        assert source.total == 5.0

    def test_schema_mismatch_raises(self, workload):
        other = Dataset(Schema.binary(["x", "y"]), np.zeros((1, 2), dtype=np.int64))
        with pytest.raises(WorkloadError):
            as_count_source(other, workload)

    def test_wrong_length_vector_raises(self, workload):
        with pytest.raises(WorkloadError):
            as_count_source(np.zeros(7), workload)

    def test_mismatched_source_dimension_raises(self, workload):
        source = RecordSource(np.array([0]), dimension=3)
        with pytest.raises(WorkloadError):
            as_count_source(source, workload)

    def test_mismatched_source_schema_raises(self, workload):
        """Same total bits, different attribute layout: the bit masks would
        address the wrong attributes, so resolution must reject it."""
        from repro.domain import Attribute

        other = Schema([Attribute("wide", 16)])  # 4 bits, like the workload
        source = RecordSource(np.array([0]), dimension=4, schema=other)
        with pytest.raises(WorkloadError, match="schema"):
            as_count_source(source, workload)
        anonymous = RecordSource(np.array([0]), dimension=4)  # no schema: allowed
        assert as_count_source(anonymous, workload) is anonymous

    def test_forced_dense_wraps_a_materialised_vector_above_the_limit(
        self, workload, monkeypatch
    ):
        """The dense limit guards *new* allocations; wrapping an existing
        vector (or table) with backend='dense' must still work."""
        monkeypatch.setattr(base, "DENSE_LIMIT_BITS", 2)
        vector = np.arange(workload.domain_size, dtype=np.float64)
        source = as_count_source(vector, workload, backend="dense")
        assert source.backend == "dense"
        table = ContingencyTable(workload.schema, vector)
        assert as_count_source(table, workload, backend="dense").backend == "dense"
