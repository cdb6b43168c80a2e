"""Schema: an ordered collection of attributes with a fixed binary encoding.

The schema assigns each attribute a contiguous block of bit positions, in
declaration order starting from bit 0.  A *record* (one value per attribute)
is encoded as an integer index into the count vector ``x`` of length
``2 ** total_bits`` by packing the per-attribute binary codes into their bit
blocks.  A *marginal over a set of attributes* corresponds to the bit mask
obtained as the union of the attributes' blocks — exactly the ``alpha``
vectors of the paper's Section 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Type, Union

import numpy as np

from repro.domain.attribute import Attribute
from repro.exceptions import ReproError, SchemaError

AttributeRef = Union[str, int, Attribute]


@dataclass(frozen=True)
class _BitBlock:
    """Bit layout of one attribute inside the packed domain index."""

    offset: int
    width: int

    @property
    def mask(self) -> int:
        return ((1 << self.width) - 1) << self.offset


#: Rows per strip of :func:`_column_max`.
_STRIP_ROWS = 32


def _column_max(matrix: np.ndarray) -> np.ndarray:
    """Column-wise max of an unsigned ``(n, d)`` matrix (0 for zero rows).

    A C-ordered matrix is reduced over strips of :data:`_STRIP_ROWS` rows,
    viewed as rows of ``32 * d`` values: the reduction then runs along
    contiguous memory, which for a few dozen columns is about twice as fast
    as reducing the narrow rows.  The rows past the last whole strip are
    reduced on their own.
    """
    if not matrix.flags.c_contiguous:
        return matrix.max(axis=0, initial=0)
    rows, columns = matrix.shape
    whole = rows - rows % _STRIP_ROWS
    strips = matrix[:whole].reshape(-1, _STRIP_ROWS * columns).max(axis=0, initial=0)
    head = strips.reshape(_STRIP_ROWS, columns).max(axis=0)
    return np.maximum(head, matrix[whole:].max(axis=0, initial=0))


class Schema:
    """Ordered attribute collection with a binary encoding of the domain.

    Parameters
    ----------
    attributes:
        The attributes, in the order that determines the bit layout.

    Examples
    --------
    >>> from repro.domain import Attribute, Schema
    >>> schema = Schema([Attribute("A", 2), Attribute("B", 3)])
    >>> schema.total_bits        # B needs 2 bits
    3
    >>> schema.domain_size
    8
    >>> schema.encode_record([1, 2])
    5
    """

    def __init__(self, attributes: Iterable[Attribute]):
        attrs = list(attributes)
        if not attrs:
            raise SchemaError("a schema needs at least one attribute")
        names = [attr.name for attr in attrs]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate attribute names in schema: {names}")
        self._attributes: Tuple[Attribute, ...] = tuple(attrs)
        self._index: Dict[str, int] = {attr.name: pos for pos, attr in enumerate(attrs)}
        blocks: List[_BitBlock] = []
        offset = 0
        for attr in attrs:
            blocks.append(_BitBlock(offset=offset, width=attr.bits))
            offset += attr.bits
        self._blocks: Tuple[_BitBlock, ...] = tuple(blocks)
        self._total_bits = offset
        # Per-column cardinalities and packing weights ``1 << offset`` of the
        # vectorised record path (check_records / pack_records).
        self._cardinalities = np.array([attr.cardinality for attr in attrs], dtype=np.uint64)
        self._bit_weights = np.left_shift(
            np.int64(1), np.array([block.offset for block in blocks], dtype=np.int64)
        )

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def attributes(self) -> Tuple[Attribute, ...]:
        """The attributes in declaration order."""
        return self._attributes

    @property
    def names(self) -> Tuple[str, ...]:
        """Attribute names in declaration order."""
        return tuple(attr.name for attr in self._attributes)

    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        parts = ", ".join(f"{attr.name}:{attr.cardinality}" for attr in self._attributes)
        return f"Schema({parts}; d={self.total_bits})"

    @property
    def total_bits(self) -> int:
        """Total number of binary attributes ``d`` after encoding."""
        return self._total_bits

    @property
    def domain_size(self) -> int:
        """Size ``N = 2**d`` of the encoded contingency-table domain."""
        return 1 << self._total_bits

    @property
    def raw_domain_size(self) -> int:
        """Product of the raw attribute cardinalities (before binary padding)."""
        size = 1
        for attr in self._attributes:
            size *= attr.cardinality
        return size

    @property
    def is_binary(self) -> bool:
        """``True`` iff every attribute is already binary (no padding cells)."""
        return all(attr.is_binary for attr in self._attributes)

    def attribute(self, ref: AttributeRef) -> Attribute:
        """Resolve ``ref`` (name, position or :class:`Attribute`) to an attribute."""
        return self._attributes[self.position(ref)]

    def position(self, ref: AttributeRef) -> int:
        """Return the declaration position of ``ref`` within the schema."""
        if isinstance(ref, Attribute):
            ref = ref.name
        if isinstance(ref, str):
            if ref not in self._index:
                raise SchemaError(f"unknown attribute {ref!r}; schema has {self.names}")
            return self._index[ref]
        pos = int(ref)
        if not (0 <= pos < len(self._attributes)):
            raise SchemaError(
                f"attribute position {ref} out of range for schema with "
                f"{len(self._attributes)} attributes"
            )
        return pos

    # ------------------------------------------------------------------ #
    # bit layout
    # ------------------------------------------------------------------ #
    def bit_block(self, ref: AttributeRef) -> Tuple[int, int]:
        """Return ``(offset, width)`` of the bit block assigned to ``ref``."""
        block = self._blocks[self.position(ref)]
        return block.offset, block.width

    def attribute_mask(self, ref: AttributeRef) -> int:
        """Bit mask covering the block of a single attribute."""
        return self._blocks[self.position(ref)].mask

    def resolve_mask(self, attributes: "Union[int, Iterable[AttributeRef]]") -> int:
        """Convert an attribute collection (or raw bit mask) into a bit mask.

        The single mask-resolution rule shared by contingency tables,
        datasets and count sources: integers are validated against the
        domain, anything else goes through :meth:`mask_of`.
        """
        if isinstance(attributes, (int, np.integer)):
            mask = int(attributes)
            if mask < 0 or mask >= self.domain_size:
                raise SchemaError(f"mask {mask} outside the domain of this schema")
            return mask
        return self.mask_of(attributes)

    def mask_of(self, refs: Iterable[AttributeRef]) -> int:
        """Bit mask of the union of the given attributes' blocks.

        This is the ``alpha`` identifying the marginal over those attributes.
        """
        mask = 0
        for ref in refs:
            mask |= self.attribute_mask(ref)
        return mask

    @property
    def full_mask(self) -> int:
        """Mask with every bit set (the full-domain ``alpha``)."""
        return self.domain_size - 1

    def attributes_of_mask(self, mask: int) -> Tuple[str, ...]:
        """Return the names of attributes whose blocks intersect ``mask``."""
        if mask < 0 or mask > self.full_mask:
            raise SchemaError(f"mask {mask} is outside the domain of this schema")
        names = []
        for attr, block in zip(self._attributes, self._blocks):
            if mask & block.mask:
                names.append(attr.name)
        return tuple(names)

    def is_attribute_aligned(self, mask: int) -> bool:
        """``True`` iff ``mask`` is exactly a union of whole attribute blocks."""
        covered = 0
        for block in self._blocks:
            if mask & block.mask:
                if (mask & block.mask) != block.mask:
                    return False
                covered |= block.mask
        return covered == mask

    # ------------------------------------------------------------------ #
    # record encoding
    # ------------------------------------------------------------------ #
    def encode_record(self, values: Sequence[int]) -> int:
        """Encode one record (one value per attribute) as a domain index."""
        if len(values) != len(self._attributes):
            raise SchemaError(
                f"record has {len(values)} values but the schema has "
                f"{len(self._attributes)} attributes"
            )
        index = 0
        for attr, block, value in zip(self._attributes, self._blocks, values):
            code = attr.validate_value(value)
            index |= code << block.offset
        return index

    def decode_index(self, index: int) -> Tuple[int, ...]:
        """Decode a domain index back into per-attribute values.

        Raises :class:`SchemaError` if the index falls on a padding cell
        (a binary combination that does not correspond to a legal value of
        some non-power-of-two attribute).
        """
        if not (0 <= index < self.domain_size):
            raise SchemaError(f"index {index} outside domain of size {self.domain_size}")
        values = []
        for attr, block in zip(self._attributes, self._blocks):
            code = (index >> block.offset) & ((1 << block.width) - 1)
            if code >= attr.cardinality:
                raise SchemaError(
                    f"index {index} lies on a padding cell of attribute {attr.name!r}"
                )
            values.append(code)
        return tuple(values)

    def check_records(
        self,
        records: Union[np.ndarray, Sequence[Sequence[int]]],
        *,
        error: Type[ReproError] = SchemaError,
    ) -> np.ndarray:
        """Validate a record matrix and return it as an ``(n, d)`` int64 matrix.

        The one record validator of the library: every value must be a whole
        number inside its attribute's domain ``[0, cardinality)``; ``error``
        (raised on the first offending column) lets callers keep their own
        exception type.  Zero rows — ``[]`` included — give an empty
        ``(0, d)`` matrix.  Float input must hold whole numbers (fractional,
        NaN and infinite values are rejected before the int64 cast); integer
        and bool input of any width are accepted.  An int64 matrix is
        returned as is (no copy), in whatever memory order it has.
        """
        matrix = np.asarray(records)
        columns = len(self._attributes)
        if matrix.ndim == 1 and matrix.shape[0] == 0:
            matrix = matrix.reshape(0, columns)
        if matrix.ndim != 2 or matrix.shape[1] != columns:
            raise error(
                "records must be a 2-D array with one column per attribute "
                f"({columns}), got shape {matrix.shape}"
            )
        if matrix.dtype.kind not in "iu":
            with np.errstate(invalid="ignore"):
                if matrix.dtype.kind == "f":
                    residue = np.trunc(matrix)
                    residue -= matrix  # NaN for NaN and ±inf, nonzero for fractions
                    attr = self._first_flagged(np.any(residue != 0, axis=0))
                    if attr is not None:
                        raise error(
                            f"column {attr.name!r} contains values that are not whole "
                            "numbers (fractional, NaN or infinite)"
                        )
                    del residue
                # Whole floats past the int64 range cast to an out-of-range
                # value, which the range check below rejects.
                matrix = matrix.astype(np.int64)
        # One column-wise max over the unsigned view: a negative value wraps
        # to at least 2**(bits - 1), so capping each cardinality there makes
        # the single comparison catch values below 0 and at or above it.
        limits = self._cardinalities
        if matrix.dtype.kind == "i":
            limits = np.minimum(limits, np.uint64(1) << np.uint64(8 * matrix.itemsize - 1))
        unsigned = matrix.view(np.dtype(f"u{matrix.itemsize}"))
        attr = self._first_flagged(_column_max(unsigned) >= limits)
        if attr is not None:
            raise error(f"column {attr.name!r} contains values outside [0, {attr.cardinality})")
        if matrix.dtype != np.int64:
            matrix = matrix.astype(np.int64)
        return matrix

    def _first_flagged(self, flags: np.ndarray) -> Optional[Attribute]:
        """The attribute of the lowest-index column set in ``flags``, if any."""
        flagged = np.flatnonzero(flags)
        return self._attributes[int(flagged[0])] if flagged.size else None

    def pack_records(self, matrix: np.ndarray) -> np.ndarray:
        """Pack a matrix returned by :meth:`check_records` into domain indices.

        One int64 product with the per-column weights ``1 << offset``: the
        validated values of each column fit inside their attribute's bit
        block and the blocks are disjoint, so the sum is the bitwise OR.
        Values that skipped :meth:`check_records` can overflow into other
        blocks; use :meth:`encode_records` for unchecked input.
        """
        return matrix @ self._bit_weights

    def encode_records(self, records: Union[np.ndarray, Sequence[Sequence[int]]]) -> np.ndarray:
        """Vectorised version of :meth:`encode_record` for a record matrix."""
        return self.pack_records(self.check_records(records))

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serialisable description (inverse of :meth:`from_dict`)."""
        return {"attributes": [attribute.to_dict() for attribute in self._attributes]}

    @classmethod
    def from_dict(cls, payload: dict) -> "Schema":
        """Rebuild a schema from :meth:`to_dict` output."""
        return cls(Attribute.from_dict(entry) for entry in payload["attributes"])

    @classmethod
    def binary(cls, names: Sequence[str]) -> "Schema":
        """Build a schema of binary attributes from a list of names."""
        return cls([Attribute(name, 2) for name in names])

    @classmethod
    def from_cardinalities(cls, cardinalities: Mapping[str, int]) -> "Schema":
        """Build a schema from a ``{name: cardinality}`` mapping (ordered)."""
        return cls([Attribute(name, card) for name, card in cardinalities.items()])
