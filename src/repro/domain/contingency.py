"""Contingency tables (count vectors) and marginalisation.

The :class:`ContingencyTable` wraps the count vector ``x`` of length
``N = 2**d`` together with its :class:`~repro.domain.schema.Schema`.  The key
operation is :meth:`ContingencyTable.marginal`, which computes the exact
marginal ``C^alpha x`` of the paper: the vector of cell counts obtained by
summing ``x`` over all attributes (bits) outside ``alpha``.

Marginalisation is implemented by reshaping ``x`` into a ``(2, ..., 2)`` cube
and summing over the axes outside the mask, so its cost is ``O(N)`` per
marginal without ever materialising a ``2**k x N`` matrix.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

import numpy as np

from repro.domain.schema import AttributeRef, Schema
from repro.exceptions import SchemaError
from repro.utils.bits import hamming_weight


def marginal_from_cube(cube: np.ndarray, mask: int, d: int) -> np.ndarray:
    """Compute the marginal ``C^alpha x`` from the ``(2,) * d`` cube view of ``x``.

    The reshape of the flat count vector into the cube is the only allocation
    :func:`marginal_from_vector` performs besides the output; callers that
    marginalise the same vector repeatedly (hot loops in strategies, the
    batched plan executor, :class:`ContingencyTable`) reshape once and call
    this directly.
    """
    if mask == (1 << d) - 1:
        return cube.reshape(-1).copy()
    if mask == 0:
        return np.array(
            [cube.sum()],
            dtype=np.result_type(cube.dtype, np.float64) if cube.dtype.kind == "f" else cube.dtype,
        )
    # Axis ``a`` of the cube corresponds to bit ``d - 1 - a`` of the index.
    axes_to_sum = tuple(d - 1 - bit for bit in range(d) if not (mask >> bit) & 1)
    return cube.sum(axis=axes_to_sum).reshape(-1)


def marginal_from_vector(x: np.ndarray, mask: int, d: int) -> np.ndarray:
    """Compute the marginal ``C^alpha x`` for ``alpha = mask`` over ``d`` bits.

    Parameters
    ----------
    x:
        Count vector of length ``2**d`` (any float or integer dtype).
    mask:
        Bit mask of the attributes kept by the marginal.
    d:
        Number of binary attributes.

    Returns
    -------
    numpy.ndarray
        Vector of length ``2**hamming_weight(mask)``.  Entry ``beta`` (in the
        compact indexing of :func:`repro.utils.bits.project_index`) is the sum
        of ``x`` over all cells whose restriction to ``mask`` equals ``beta``.
    """
    x = np.asarray(x)
    if x.ndim != 1 or x.shape[0] != (1 << d):
        raise ValueError(f"x must be a vector of length 2**{d}, got shape {x.shape}")
    if mask < 0 or mask >= (1 << d):
        raise ValueError(f"mask {mask} does not address {d} bits")
    if mask == (1 << d) - 1:
        return x.copy()
    return marginal_from_cube(x.reshape((2,) * d), mask, d)


class ContingencyTable:
    """A count vector over the binary-encoded domain of a schema.

    Parameters
    ----------
    schema:
        The schema describing the attributes and their bit layout.
    counts:
        Vector of length ``schema.domain_size``; copied and stored as float64
        unless it is already a float64 array owned by the caller.
    """

    def __init__(self, schema: Schema, counts: np.ndarray, *, copy: bool = True):
        vector = np.asarray(counts, dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != schema.domain_size:
            raise SchemaError(
                f"counts must have length {schema.domain_size} for this schema, "
                f"got shape {vector.shape}"
            )
        self._schema = schema
        self._counts = vector.copy() if copy else vector
        # Cached (2, ..., 2) view of the counts.  Reshaping per marginal()
        # call allocated a fresh view object on every hot-loop iteration; the
        # view shares the counts' memory, so caching it is always safe.
        self._cube: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        """The schema this table is defined over."""
        return self._schema

    @property
    def counts(self) -> np.ndarray:
        """The underlying count vector ``x`` (length ``2**d``)."""
        return self._counts

    @property
    def dimension(self) -> int:
        """Number of binary attributes ``d``."""
        return self._schema.total_bits

    @property
    def domain_size(self) -> int:
        """Length ``N = 2**d`` of the count vector."""
        return self._schema.domain_size

    @property
    def cube(self) -> np.ndarray:
        """The counts reshaped to a ``(2,) * d`` cube (cached view, shared memory)."""
        if self._cube is None:
            self._cube = self._counts.reshape((2,) * self.dimension)
        return self._cube

    @property
    def total(self) -> float:
        """Total number of tuples represented by the table."""
        return float(self._counts.sum())

    def __repr__(self) -> str:
        return (
            f"ContingencyTable(d={self.dimension}, N={self.domain_size}, "
            f"total={self.total:g})"
        )

    # ------------------------------------------------------------------ #
    # marginals
    # ------------------------------------------------------------------ #
    def marginal(self, attributes: Union[int, Iterable[AttributeRef]]) -> np.ndarray:
        """Exact marginal over a set of attributes or an explicit bit mask.

        ``attributes`` may be an iterable of attribute names/positions (the
        usual case) or a raw bit mask over the encoded binary attributes.
        """
        mask = self.resolve_mask(attributes)
        return self.marginal_by_mask(mask)

    def marginal_by_mask(self, mask: int) -> np.ndarray:
        """Exact marginal for an explicit bit mask ``alpha``."""
        mask = int(mask)
        d = self.dimension
        if mask < 0 or mask >= self.domain_size:
            raise ValueError(f"mask {mask} does not address {d} bits")
        if mask == self.domain_size - 1:
            return self._counts.copy()
        return marginal_from_cube(self.cube, mask, d)

    def resolve_mask(self, attributes: Union[int, Iterable[AttributeRef]]) -> int:
        """Convert an attribute collection (or raw mask) into a bit mask."""
        return self._schema.resolve_mask(attributes)

    def marginal_size(self, attributes: Union[int, Iterable[AttributeRef]]) -> int:
        """Number of cells of the marginal over ``attributes``."""
        return 1 << hamming_weight(self.resolve_mask(attributes))

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def as_source(self, backend: str = "auto", *, limit_bits=None):
        """The table as a :class:`~repro.sources.base.CountSource`.

        ``"dense"`` (and ``"auto"`` below the dense limit) wraps the existing
        vector, sharing its memory; ``"record"`` (and ``"auto"`` above the
        limit) converts the non-zero cells into a record-native source,
        sharded by the same rule as a dataset of the same data
        (:func:`repro.sources.resolve.count_source`).
        """
        from repro.sources.resolve import count_source

        return count_source(self, backend, limit_bits=limit_bits)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_records(
        cls, schema: Schema, records: Union[np.ndarray, Sequence[Sequence[int]]]
    ) -> "ContingencyTable":
        """Build the table by counting encoded records."""
        indices = schema.encode_records(records)
        counts = np.bincount(indices, minlength=schema.domain_size).astype(np.float64)
        return cls(schema, counts, copy=False)

    @classmethod
    def zeros(cls, schema: Schema) -> "ContingencyTable":
        """An all-zero table over ``schema``."""
        return cls(schema, np.zeros(schema.domain_size), copy=False)

    def copy(self) -> "ContingencyTable":
        """Return a deep copy of the table."""
        return ContingencyTable(self._schema, self._counts, copy=True)
