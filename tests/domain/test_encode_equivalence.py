"""The vectorised record validator and packer against the per-column encoder.

``Schema.check_records`` validates a record matrix with one column-wise
reduction and ``Schema.pack_records`` packs it with one int64 product.  These
tests pin both, through ``encode_records`` and ``Dataset``, against a copy of
the per-column encoder they replaced (kept here as the reference): the same
codes on every schema and memory layout, and the same error type and message
— naming the lowest-index offending column — on bad input.  They also cover
the rules the per-column encoder lacked: float input must hold whole numbers,
and zero rows give zero codes at every entry point.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.data.loader import _batch_code_dtype
from repro.domain import Attribute, ContingencyTable, Dataset, Schema
from repro.exceptions import DataError, SchemaError
from repro.shards import ShardedRecordSource, StreamingSourceBuilder
from repro.sources import RecordSource

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def legacy_encode(schema: Schema, records, error=SchemaError) -> np.ndarray:
    """The per-column encoder: check each column's range, shift it in."""
    matrix = np.asarray(records, dtype=np.int64)
    if matrix.ndim != 2 or matrix.shape[1] != len(schema):
        raise error(
            "records must be a 2-D array with one column per attribute "
            f"({len(schema)}), got shape {matrix.shape}"
        )
    indices = np.zeros(matrix.shape[0], dtype=np.int64)
    for column, attr in enumerate(schema.attributes):
        offset, _width = schema.bit_block(column)
        values = matrix[:, column]
        if values.min(initial=0) < 0 or values.max(initial=0) >= attr.cardinality:
            raise error(f"column {attr.name!r} contains values outside [0, {attr.cardinality})")
        indices |= values.astype(np.int64) << offset
    return indices


@st.composite
def schemas(draw, max_attributes: int = 12) -> Schema:
    cards = draw(st.lists(st.integers(2, 9), min_size=1, max_size=max_attributes))
    return Schema([Attribute(f"c{position}", card) for position, card in enumerate(cards)])


@st.composite
def valid_records(draw, min_rows: int = 0):
    """A schema and an in-domain int64 record matrix over it."""
    schema = draw(schemas())
    rows = draw(st.integers(min_rows, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    cards = np.array([attr.cardinality for attr in schema.attributes])
    generator = np.random.default_rng(seed)
    matrix = (generator.random((rows, len(cards))) * cards).astype(np.int64)
    return schema, matrix


def layouts(matrix: np.ndarray, schema: Schema):
    """The same records as C-order, Fortran-order, column-sliced and loader
    batch (narrowest unsigned dtype) matrices."""
    rows, columns = matrix.shape
    wide = np.full((rows, 2 * columns + 1), -7, dtype=np.int64)
    wide[:, 1::2] = matrix
    yield "C", np.ascontiguousarray(matrix)
    yield "F", np.asfortranarray(matrix)
    yield "sliced", wide[:, 1::2]
    yield "batch", matrix.astype(_batch_code_dtype(schema))


def assert_same_failure(call, reference, error_type) -> None:
    with pytest.raises(error_type) as expected:
        reference()
    with pytest.raises(error_type) as actual:
        call()
    assert type(actual.value) is type(expected.value)
    assert str(actual.value) == str(expected.value)


class TestCodes:
    @SETTINGS
    @given(valid_records())
    def test_every_layout_matches_the_per_column_encoder(self, case):
        schema, matrix = case
        expected = legacy_encode(schema, matrix)
        for layout, view in layouts(matrix, schema):
            codes = schema.encode_records(view)
            assert codes.dtype == np.int64, layout
            assert np.array_equal(codes, expected), layout
            scalar = [schema.encode_record(row) for row in view.tolist()]
            assert codes.tolist() == scalar, layout

    @SETTINGS
    @given(valid_records())
    def test_dataset_packs_what_it_validated(self, case):
        schema, matrix = case
        expected = legacy_encode(schema, matrix)
        for layout, view in layouts(matrix, schema):
            dataset = Dataset(schema, view)
            assert dataset.records.dtype == np.int64, layout
            codes, weights = dataset.encoded_counts()
            unique, counts = np.unique(expected, return_counts=True)
            assert np.array_equal(codes, unique), layout
            assert np.array_equal(weights, counts.astype(np.float64)), layout

    def test_widest_domain(self):
        schema = Schema([Attribute(f"b{bit}", 2) for bit in range(62)])
        matrix = np.eye(62, dtype=np.int64)[[0, 61, 30]]
        matrix[2, :] = 1
        codes = schema.encode_records(matrix)
        assert codes.tolist() == [1, 1 << 61, (1 << 62) - 1]
        assert np.array_equal(codes, legacy_encode(schema, matrix))

    def test_int64_input_is_validated_without_a_copy(self):
        schema = Schema([Attribute(f"a{position}", 3) for position in range(32)])
        matrix = np.random.default_rng(3).integers(0, 3, size=(20_000, 32))
        dataset = Dataset(schema, matrix)
        assert np.shares_memory(dataset.records, matrix)
        tracemalloc.start()
        try:
            checked = schema.check_records(matrix)
            codes = schema.pack_records(checked)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert checked is matrix
        # The output codes are one eighth of the matrix; a full-size copy
        # (a cast, a shifted column stack) would push the peak past it.
        assert peak < matrix.nbytes // 4
        assert np.array_equal(codes, legacy_encode(schema, matrix))


@st.composite
def invalid_records(draw):
    """A valid matrix with out-of-range values planted in some columns."""
    schema, matrix = draw(valid_records(min_rows=1))
    rows, columns = matrix.shape
    bad_columns = draw(
        st.lists(st.integers(0, columns - 1), min_size=1, max_size=columns, unique=True)
    )
    for column in bad_columns:
        cardinality = schema.attributes[column].cardinality
        row = draw(st.integers(0, rows - 1))
        matrix[row, column] = draw(
            st.integers(-(2**40), -1) | st.integers(cardinality, 2**40) | st.just(cardinality)
        )
    return schema, matrix


class TestErrors:
    @SETTINGS
    @given(invalid_records())
    def test_out_of_range_names_the_first_bad_column(self, case):
        schema, matrix = case
        for layout, view in layouts(matrix, schema):
            if layout == "batch":
                continue  # negative and huge values do not fit the narrow dtype
            assert_same_failure(
                lambda: schema.encode_records(view),
                lambda: legacy_encode(schema, view),
                SchemaError,
            )
            assert_same_failure(
                lambda: Dataset(schema, view),
                lambda: legacy_encode(schema, view, DataError),
                DataError,
            )

    @SETTINGS
    @given(valid_records(min_rows=1), st.data())
    def test_narrow_batches_above_the_cardinality(self, case, data):
        schema, matrix = case
        column = data.draw(st.integers(0, matrix.shape[1] - 1))
        matrix[data.draw(st.integers(0, matrix.shape[0] - 1)), column] = data.draw(
            st.integers(schema.attributes[column].cardinality, 255)
        )
        batch = matrix.astype(_batch_code_dtype(schema))
        assert_same_failure(
            lambda: schema.encode_records(batch),
            lambda: legacy_encode(schema, batch),
            SchemaError,
        )

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int32, np.int64])
    def test_negative_values_of_narrow_signed_dtypes(self, dtype):
        # Cardinality 200 exceeds int8's positive range, so a negative int8
        # seen as unsigned (128-255) can pass a bare ``< 200`` check.
        schema = Schema([Attribute("small", 2), Attribute("large", 200)])
        matrix = np.array([[1, 120], [0, -100]], dtype=dtype)
        with pytest.raises(SchemaError, match=r"column 'large' contains values outside \[0, 200\)"):
            schema.encode_records(matrix)
        assert schema.encode_records(matrix[:1]).tolist() == [1 | (120 << 1)]

    def test_uint64_values_past_int64(self):
        schema = Schema([Attribute("a", 2), Attribute("b", 3)])
        matrix = np.array([[0, 1], [1, 2**63 + 1]], dtype=np.uint64)
        with pytest.raises(SchemaError, match="column 'b'"):
            schema.encode_records(matrix)
        assert schema.encode_records(matrix[:1]).tolist() == [2]


class TestColumnMaxStrips:
    """``check_records`` reduces C-ordered matrices in strips of 32 rows and
    the rows past the last whole strip on their own; a bad value anywhere
    still names the same column with the same message."""

    ROWS = 100  # three whole strips and four trailing rows

    @pytest.fixture
    def schema(self):
        return Schema([Attribute(f"c{position}", 3 + position) for position in range(5)])

    @pytest.mark.parametrize(
        "row, column, value",
        [
            (97, 3, 6),  # trailing partial strip
            (ROWS - 1, 4, 7),  # last row
            (ROWS - 1, 0, 3),  # last row, first column
            (40, 2, -1),  # negative, inside a whole strip
            (99, 1, -(2**40)),  # negative, trailing rows
            (31, 4, 2**40),  # last row of the first strip
        ],
    )
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bad_value_names_its_column(self, schema, row, column, value, order):
        matrix = np.zeros((self.ROWS, len(schema)), dtype=np.int64)
        matrix[row, column] = value
        matrix[5, column] = 1  # a valid value earlier in the same column
        matrix = np.asarray(matrix, order=order)
        assert_same_failure(
            lambda: schema.check_records(matrix),
            lambda: legacy_encode(schema, matrix),
            SchemaError,
        )

    @pytest.mark.parametrize("rows", [0, 1, 31, 32, 33, 64, 100])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_valid_matrices_pass_unchanged(self, schema, rows, order):
        cards = np.array([attr.cardinality for attr in schema.attributes])
        generator = np.random.default_rng(rows)
        matrix = np.asarray(
            (generator.random((rows, len(cards))) * cards).astype(np.int64), order=order
        )
        checked = schema.check_records(matrix)
        assert checked is matrix
        assert np.array_equal(schema.pack_records(checked), legacy_encode(schema, matrix))


class TestFloatRecords:
    @pytest.mark.parametrize(
        "records, column",
        [
            ([[0.9, 1.5, 0.0]], "x"),
            ([[1.0, 1.5, 0.0]], "y"),
            ([[1.0, 2.0, np.nan]], "z"),
            ([[1.0, np.inf, 0.0]], "y"),
            ([[-np.inf, 0.0, 0.0]], "x"),
            ([[1.0, 2.0, 3.0], [0.0, 0.0, 2.5]], "z"),
        ],
    )
    def test_non_whole_values_are_rejected(self, mixed_schema, records, column):
        pattern = f"column '{column}' contains values that are not whole numbers"
        with pytest.raises(SchemaError, match=pattern):
            mixed_schema.encode_records(np.array(records))
        with pytest.raises(DataError, match=pattern):
            Dataset(mixed_schema, records)
        with pytest.raises(DataError, match=pattern):
            Dataset.from_tuples(mixed_schema, map(tuple, records))

    def test_whole_floats_pack_like_integers(self, mixed_schema):
        records = [[1.0, 2.0, 3.0], [0.0, 1.0, 0.0]]
        expected = mixed_schema.encode_records([[1, 2, 3], [0, 1, 0]])
        assert np.array_equal(mixed_schema.encode_records(records), expected)
        dataset = Dataset(mixed_schema, np.array(records, dtype=np.float32))
        assert dataset.records.dtype == np.int64
        assert dataset.records.tolist() == [[1, 2, 3], [0, 1, 0]]

    def test_whole_floats_out_of_range(self, mixed_schema):
        for value in (-1.0, 4.0, 1e30, -1e30):
            with pytest.raises(SchemaError, match="column 'z' contains values outside"):
                mixed_schema.encode_records([[0.0, 0.0, value]])

    def test_bool_records(self):
        schema = Schema.binary(["a", "b", "c"])
        records = np.array([[True, False, True], [False, True, True]])
        assert schema.encode_records(records).tolist() == [0b101, 0b110]
        assert Dataset(schema, records).records.tolist() == [[1, 0, 1], [0, 1, 1]]


class TestEmptyRecords:
    """Zero rows mean zero codes, at every entry point."""

    @pytest.mark.parametrize("records", [[], np.empty((0,)), np.empty((0, 3), dtype=np.int64)])
    def test_every_entry_point(self, mixed_schema, records):
        codes = mixed_schema.encode_records(records)
        assert codes.shape == (0,) and codes.dtype == np.int64
        assert Dataset(mixed_schema, records).records.shape == (0, 3)
        assert ContingencyTable.from_records(mixed_schema, records).total == 0
        assert RecordSource.from_records(mixed_schema, records).total == 0
        assert ShardedRecordSource.from_records(mixed_schema, records, shards=2).total == 0
        builder = StreamingSourceBuilder(mixed_schema).add_records(records)
        assert builder.rows_ingested == 0

    def test_other_shapes_are_still_rejected(self, mixed_schema):
        with pytest.raises(SchemaError, match="got shape"):
            mixed_schema.encode_records(np.empty((0, 2)))
        with pytest.raises(SchemaError, match="got shape"):
            mixed_schema.encode_records([0, 1, 2])
        with pytest.raises(DataError, match="got shape"):
            Dataset(mixed_schema, np.empty((4, 0)))
