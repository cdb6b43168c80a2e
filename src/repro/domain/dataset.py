"""Record-level datasets.

A :class:`Dataset` pairs a record matrix (one row per tuple, one column per
attribute, integer codes) with its :class:`~repro.domain.schema.Schema`.  It
is the user-facing entry point: private release always starts from a dataset
(or directly from a :class:`~repro.domain.contingency.ContingencyTable`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.domain.contingency import ContingencyTable
from repro.domain.schema import AttributeRef, Schema
from repro.exceptions import DataError, SchemaError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sources.base import CountSource


class Dataset:
    """A collection of records over a schema.

    Parameters
    ----------
    schema:
        The schema of the records.
    records:
        2-D integer array of shape ``(n_records, n_attributes)``; each value
        must lie in the corresponding attribute's domain.  Validated once, by
        :meth:`~repro.domain.schema.Schema.check_records` (raising
        :class:`~repro.exceptions.DataError`); an int64 matrix is kept
        without a copy.
    name:
        Optional human-readable name (used in reports and benchmarks).
    """

    def __init__(
        self,
        schema: Schema,
        records: Union[np.ndarray, Sequence[Sequence[int]]],
        *,
        name: Optional[str] = None,
    ):
        matrix = schema.check_records(records, error=DataError)
        self._schema = schema
        self._records = matrix
        self._name = name or "dataset"
        self._table: Optional[ContingencyTable] = None
        # Deduplicated (codes, weights) encoding, shared by the record-native
        # source and the dense cube build.
        self._encoded: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        """The schema of this dataset."""
        return self._schema

    @property
    def records(self) -> np.ndarray:
        """The record matrix (read-only view)."""
        view = self._records.view()
        view.setflags(write=False)
        return view

    @property
    def name(self) -> str:
        """Human-readable dataset name."""
        return self._name

    def __len__(self) -> int:
        return self._records.shape[0]

    def __repr__(self) -> str:
        return (
            f"Dataset({self._name!r}, n={len(self)}, attributes={len(self._schema)}, "
            f"d={self._schema.total_bits})"
        )

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        for row in self._records:
            yield tuple(int(v) for v in row)

    # ------------------------------------------------------------------ #
    # conversions
    # ------------------------------------------------------------------ #
    def encoded_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Deduplicated ``(codes, weights)`` encoding of the records (cached).

        ``codes`` holds the distinct packed domain indices (sorted) and
        ``weights`` how many records carry each — the shared substrate of
        both the record-native count source and the dense cube build.
        """
        if self._encoded is None:
            codes = self._schema.pack_records(self._records)
            unique, counts = np.unique(codes, return_counts=True)
            self._encoded = (unique, counts.astype(np.float64))
        return self._encoded

    def contingency_table(self, *, limit_bits: Optional[int] = None) -> ContingencyTable:
        """The (cached) exact contingency table of the dataset.

        Raises :class:`DataError` when the dense ``2**d`` vector would exceed
        the dense limit (``limit_bits`` overrides it for this call); wide
        schemas go through :meth:`as_source` instead.
        """
        if self._table is None:
            from repro.sources.base import ensure_dense_allowed

            ensure_dense_allowed(self._schema.total_bits, limit_bits=limit_bits)
            codes, weights = self.encoded_counts()
            counts = np.zeros(self._schema.domain_size, dtype=np.float64)
            counts[codes] = weights
            self._table = ContingencyTable(self._schema, counts, copy=False)
        return self._table

    def to_vector(self) -> np.ndarray:
        """The count vector ``x`` of length ``2**d``."""
        return self.contingency_table().counts

    def as_source(
        self,
        backend: str = "auto",
        *,
        limit_bits: Optional[int] = None,
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        executor: str = "thread",
    ) -> "CountSource":
        """The dataset as a :class:`~repro.sources.base.CountSource`.

        ``backend="auto"`` wraps the dense contingency table up to the dense
        limit (bit-for-bit the historical pipeline) and switches to the
        record-native source above it; ``"dense"`` / ``"record"`` force one.
        ``shards`` / ``workers`` split the record-native source into hash
        shards computed on a worker pool; left unset, it shards at or above
        the auto-shard row count on multi-core machines.  Sharding never
        changes values.  The rule is :func:`repro.sources.resolve.count_source`,
        the same for a table or a count vector of this data.
        """
        from repro.sources.resolve import count_source

        return count_source(
            self,
            backend,
            limit_bits=limit_bits,
            shards=shards,
            workers=workers,
            executor=executor,
        )

    def marginal(self, attributes: Union[int, Iterable[AttributeRef]]) -> np.ndarray:
        """Exact (non-private) marginal over ``attributes``.

        Served from the cached contingency table on narrow schemas and
        straight from the deduplicated record encoding on wide ones (where
        the dense table cannot exist).  One marginal is one pass over the
        encoding, which partitioning into shards would cost again, so the
        wide path never shards.
        """
        from repro.sources.base import DENSE_LIMIT_BITS

        if self._schema.total_bits <= DENSE_LIMIT_BITS:
            return self.contingency_table().marginal(attributes)
        mask = self._schema.resolve_mask(attributes)
        return self.as_source(backend="record", shards=1).marginal(mask)

    # ------------------------------------------------------------------ #
    # manipulation helpers
    # ------------------------------------------------------------------ #
    def project(self, attributes: Sequence[AttributeRef], *, name: Optional[str] = None) -> "Dataset":
        """Return a new dataset restricted to the given attributes (in order)."""
        positions = [self._schema.position(ref) for ref in attributes]
        if not positions:
            raise SchemaError("projection needs at least one attribute")
        sub_schema = Schema([self._schema.attributes[p] for p in positions])
        sub_records = self._records[:, positions]
        return Dataset(sub_schema, sub_records, name=name or f"{self._name}[projected]")

    def sample(self, n: int, rng: Union[None, int, np.random.Generator] = None) -> "Dataset":
        """Return a uniform random sample (without replacement) of ``n`` records."""
        from repro.utils.rng import ensure_rng

        if n < 0 or n > len(self):
            raise DataError(f"cannot sample {n} records from a dataset of {len(self)}")
        generator = ensure_rng(rng)
        rows = generator.choice(len(self), size=n, replace=False)
        return Dataset(self._schema, self._records[rows], name=f"{self._name}[sample]")

    @classmethod
    def from_tuples(
        cls, schema: Schema, tuples: Iterable[Sequence[int]], *, name: Optional[str] = None
    ) -> "Dataset":
        """Build a dataset from an iterable of per-attribute value tuples."""
        return cls(schema, list(tuples), name=name)
