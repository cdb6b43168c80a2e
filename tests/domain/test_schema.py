"""Tests for schemas and the binary encoding of records."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.domain.attribute import Attribute
from repro.domain.dataset import Dataset
from repro.domain.schema import Schema
from repro.exceptions import DomainSizeError, SchemaError
from repro.sources import base


class TestConstruction:
    def test_basic_properties(self, mixed_schema):
        assert len(mixed_schema) == 3
        assert mixed_schema.names == ("x", "y", "z")
        assert mixed_schema.total_bits == 5
        assert mixed_schema.domain_size == 32
        assert mixed_schema.raw_domain_size == 2 * 3 * 4

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            Schema([])

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError):
            Schema([Attribute("a", 2), Attribute("a", 3)])

    def test_binary_constructor(self):
        schema = Schema.binary(["p", "q", "r"])
        assert schema.total_bits == 3
        assert schema.is_binary

    def test_from_cardinalities(self):
        schema = Schema.from_cardinalities({"a": 4, "b": 2})
        assert schema.total_bits == 3
        assert schema.attribute("a").cardinality == 4

    def test_equality_and_hash(self):
        a = Schema.binary(["x", "y"])
        b = Schema.binary(["x", "y"])
        c = Schema.binary(["x", "z"])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestLookups:
    def test_position_by_name_and_index(self, mixed_schema):
        assert mixed_schema.position("y") == 1
        assert mixed_schema.position(2) == 2
        assert mixed_schema.attribute("z").cardinality == 4

    def test_unknown_name_rejected(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.position("missing")

    def test_out_of_range_index_rejected(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.position(7)

    def test_attribute_object_lookup(self, mixed_schema):
        attr = mixed_schema.attributes[1]
        assert mixed_schema.position(attr) == 1


class TestBitLayout:
    def test_blocks_are_contiguous(self, mixed_schema):
        assert mixed_schema.bit_block("x") == (0, 1)
        assert mixed_schema.bit_block("y") == (1, 2)
        assert mixed_schema.bit_block("z") == (3, 2)

    def test_attribute_masks(self, mixed_schema):
        assert mixed_schema.attribute_mask("x") == 0b00001
        assert mixed_schema.attribute_mask("y") == 0b00110
        assert mixed_schema.attribute_mask("z") == 0b11000

    def test_mask_of_union(self, mixed_schema):
        assert mixed_schema.mask_of(["x", "z"]) == 0b11001
        assert mixed_schema.full_mask == 0b11111

    def test_attributes_of_mask(self, mixed_schema):
        assert mixed_schema.attributes_of_mask(0b00110) == ("y",)
        assert mixed_schema.attributes_of_mask(0b11001) == ("x", "z")
        assert mixed_schema.attributes_of_mask(0) == ()

    def test_attributes_of_mask_out_of_range(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.attributes_of_mask(1 << 10)

    def test_is_attribute_aligned(self, mixed_schema):
        assert mixed_schema.is_attribute_aligned(0b00110)
        assert mixed_schema.is_attribute_aligned(0b11001)
        assert not mixed_schema.is_attribute_aligned(0b00010)  # half of y's block


class TestRecordEncoding:
    def test_encode_decode_round_trip(self, mixed_schema):
        for record in [(0, 0, 0), (1, 2, 3), (0, 1, 2)]:
            assert mixed_schema.decode_index(mixed_schema.encode_record(record)) == record

    def test_encode_example(self):
        schema = Schema([Attribute("A", 2), Attribute("B", 3)])
        # A occupies bit 0, B occupies bits 1-2: record (1, 2) -> 1 + (2 << 1) = 5.
        assert schema.encode_record([1, 2]) == 5

    def test_encode_rejects_wrong_length(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.encode_record([0, 0])

    def test_encode_rejects_out_of_domain(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.encode_record([0, 3, 0])

    def test_decode_rejects_padding_cell(self):
        schema = Schema([Attribute("y", 3)])
        with pytest.raises(SchemaError):
            schema.decode_index(3)  # code 3 is a padding cell for cardinality 3

    def test_decode_rejects_out_of_range(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.decode_index(mixed_schema.domain_size)

    def test_encode_records_matches_scalar(self, mixed_schema):
        records = np.array([[0, 0, 0], [1, 2, 3], [1, 1, 1]])
        vectorised = mixed_schema.encode_records(records)
        scalar = [mixed_schema.encode_record(row) for row in records]
        assert vectorised.tolist() == scalar

    def test_encode_records_rejects_bad_shape(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.encode_records(np.zeros((4, 2), dtype=int))

    def test_encode_records_rejects_out_of_domain(self, mixed_schema):
        with pytest.raises(SchemaError):
            mixed_schema.encode_records(np.array([[0, 5, 0]]))

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 3)), min_size=1, max_size=30))
    def test_encoding_is_injective(self, records):
        schema = Schema([Attribute("x", 2), Attribute("y", 3), Attribute("z", 4)])
        encoded = [schema.encode_record(r) for r in records]
        decoded = [schema.decode_index(e) for e in encoded]
        assert decoded == [tuple(r) for r in records]


class TestGuards:
    def test_dense_limit(self):
        schema = Schema([Attribute(f"b{i}", 2) for i in range(30)])
        dataset = Dataset(schema, np.zeros((1, 30), dtype=np.int64))
        with pytest.raises(DomainSizeError):
            dataset.contingency_table()

    def test_dense_limit_passes_for_small(self, mixed_schema, monkeypatch):
        monkeypatch.setattr(base, "DENSE_LIMIT_BITS", 10)
        dataset = Dataset(mixed_schema, np.zeros((1, len(mixed_schema)), dtype=np.int64))
        assert dataset.contingency_table().counts.shape == (mixed_schema.domain_size,)
