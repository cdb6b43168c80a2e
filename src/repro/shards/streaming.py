"""Streaming ingestion: build sharded record sources without the record matrix.

A :class:`StreamingSourceBuilder` ingests record batches — raw code arrays,
record matrices over a schema, or chunked CSV via
:func:`repro.data.loader.iter_csv_batches` — and maintains only sorted,
deduplicated ``(codes, weights)`` runs.  Runs are merged (concatenate +
sorted-unique + weight bincount) whenever the buffer grows past a threshold,
so memory is bounded by the number of *distinct* records plus one batch — a
dataset far larger than memory streams through without the ``n x d`` record
matrix (or the ``2**d`` dense vector) ever existing.

Exactness: every merge sums integer tuple counts in float64 (exact below
``2**53``), and the final compacted arrays are the sorted distinct codes
with summed weights — precisely what a one-shot
:class:`~repro.sources.record.RecordSource` computes from the concatenation
of all batches.  Feeding the same rows in any batch order therefore builds
the **same source, bitwise**, and the stable hash partition makes the final
shard layout independent of ingestion order too.

Under a ``memory_budget`` the builder goes out-of-core: compacted runs that
would breach the budget are spilled to disk (:mod:`repro.store.spill`) and
merged back in bounded-size streamed chunks — either into final arrays, or
straight into an on-disk encoded source via :meth:`write_store` without the
full arrays ever existing in memory.  The disk path runs the exact same
``np.unique`` + weight-bincount dedup kernel, so the result stays bitwise
identical to an unbounded in-memory build.
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import DataError
from repro.obs import runtime as _obs
from repro.shards.partition import resolve_shard_count
from repro.shards.sharded import ShardedRecordSource
from repro.sources.record import MAX_RECORD_BITS, RecordSource
from repro.store.layout import parse_memory_budget
from repro.store.spill import RunSpiller, merge_sorted_runs, spill_threshold_entries

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.domain.schema import Schema

#: Merge the buffered runs whenever their combined length exceeds this many
#: entries (distinct-per-run codes).  Bounds ingest memory at roughly
#: ``distinct + DEFAULT_MERGE_THRESHOLD`` int64/float64 pairs.
DEFAULT_MERGE_THRESHOLD = 1 << 20


class StreamingSourceBuilder:
    """Incrementally build a :class:`ShardedRecordSource` from record batches.

    Parameters
    ----------
    schema:
        Schema of the incoming records (required for :meth:`add_records` /
        :meth:`add_csv`; optional when only raw codes are fed).
    dimension:
        Number of binary attributes ``d``; inferred from ``schema`` when
        omitted.
    merge_threshold:
        Buffered-entry count that triggers a run merge (default
        :data:`DEFAULT_MERGE_THRESHOLD`).
    memory_budget:
        Optional ingest memory budget in bytes (or a ``"64M"``-style
        string).  Enables disk spilling: compacted runs larger than half
        the budget-derived entry threshold move to disk, keeping resident
        buffered entries — and the compaction transients — under the
        budget no matter how many distinct records stream through.
    spill_dir:
        Directory for spilled runs (a private temp directory by default).
        Giving one without a ``memory_budget`` enables spilling at the
        default merge threshold.
    """

    def __init__(
        self,
        schema: Optional["Schema"] = None,
        *,
        dimension: Optional[int] = None,
        merge_threshold: int = DEFAULT_MERGE_THRESHOLD,
        memory_budget: Optional[Union[int, str]] = None,
        spill_dir: Optional[Union[str, Path]] = None,
    ):
        if dimension is None:
            if schema is None:
                raise DataError(
                    "StreamingSourceBuilder needs a schema or an explicit dimension"
                )
            dimension = schema.total_bits
        d = int(dimension)
        if not (1 <= d <= MAX_RECORD_BITS):
            raise DataError(
                f"record sources support 1..{MAX_RECORD_BITS} binary attributes, got {d}"
            )
        if schema is not None and schema.total_bits != d:
            raise DataError(
                f"dimension {d} does not match the schema's {schema.total_bits} bits"
            )
        self._schema = schema
        self._d = d
        self._merge_threshold = int(merge_threshold)
        self._memory_budget = parse_memory_budget(memory_budget)
        if self._memory_budget is not None:
            self._merge_threshold = min(
                self._merge_threshold, spill_threshold_entries(self._memory_budget)
            )
        self._spiller: Optional[RunSpiller] = None
        if self._memory_budget is not None or spill_dir is not None:
            self._spiller = RunSpiller(spill_dir)
        self._runs: List[Tuple[np.ndarray, np.ndarray]] = []
        self._buffered = 0
        self._rows = 0
        self._batches = 0

    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Optional["Schema"]:
        """The schema incoming records are encoded under, when known."""
        return self._schema

    @property
    def dimension(self) -> int:
        """Number of binary attributes ``d``."""
        return self._d

    @property
    def rows_ingested(self) -> int:
        """Total rows (code entries) fed so far."""
        return self._rows

    @property
    def batches_ingested(self) -> int:
        """Number of batches fed so far."""
        return self._batches

    @property
    def buffered_entries(self) -> int:
        """Current buffered run entries — the live memory bound."""
        return self._buffered

    @property
    def memory_budget(self) -> Optional[int]:
        """Ingest memory budget in bytes, when spilling is enabled."""
        return self._memory_budget

    @property
    def spilled_runs(self) -> int:
        """Number of sorted runs currently spilled to disk."""
        return self._spiller.run_count if self._spiller is not None else 0

    @property
    def spilled_bytes(self) -> int:
        """Total bytes of spilled run files currently on disk."""
        return self._spiller.bytes_spilled if self._spiller is not None else 0

    def __repr__(self) -> str:
        spilled = f", spilled_runs={self.spilled_runs}" if self._spiller is not None else ""
        return (
            f"StreamingSourceBuilder(d={self._d}, rows={self._rows}, "
            f"batches={self._batches}, buffered={self._buffered}{spilled})"
        )

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def add_codes(
        self,
        codes: Union[np.ndarray, Sequence[int]],
        weights: Optional[Union[np.ndarray, Sequence[float]]] = None,
    ) -> "StreamingSourceBuilder":
        """Ingest one batch of packed domain codes (optionally weighted)."""
        code_array = np.asarray(codes, dtype=np.int64).reshape(-1)
        if code_array.size == 0:
            return self
        if int(code_array.min()) < 0 or int(code_array.max()) >= (1 << self._d):
            raise DataError(f"record codes fall outside the {self._d}-bit domain")
        if weights is None:
            rows = code_array.shape[0]
            unique, counts = np.unique(code_array, return_counts=True)
            summed = counts.astype(np.float64)
        else:
            weight_array = np.asarray(weights, dtype=np.float64).reshape(-1)
            if weight_array.shape != code_array.shape:
                raise DataError(
                    f"got {weight_array.shape[0]} weights for {code_array.shape[0]} codes"
                )
            if not np.isfinite(weight_array).all():
                raise DataError("record weights must be finite")
            rows = code_array.shape[0]
            unique, inverse = np.unique(code_array, return_inverse=True)
            summed = np.bincount(
                inverse.reshape(-1), weights=weight_array, minlength=unique.shape[0]
            )
        self._runs.append((unique, summed))
        self._buffered += int(unique.shape[0])
        self._rows += int(rows)
        self._batches += 1
        if _obs.ENABLED:
            _obs.counter_inc("streaming.batches")
            _obs.counter_inc("streaming.rows", float(rows))
            _obs.gauge_set("streaming.buffered_entries", self._buffered)
        if self._buffered > self._merge_threshold:
            self._compact()
        return self

    def add_records(
        self, records: Union[np.ndarray, Sequence[Sequence[int]]]
    ) -> "StreamingSourceBuilder":
        """Ingest one batch of records (rows of per-attribute codes)."""
        if self._schema is None:
            raise DataError("add_records needs a builder constructed with a schema")
        codes = self._schema.encode_records(records)
        if codes.size == 0:
            return self
        return self.add_codes(codes)

    def add_csv(
        self,
        path: Union[str, Path],
        *,
        columns: Optional[Sequence[str]] = None,
        has_header: bool = True,
        batch_size: int = 50_000,
    ) -> "StreamingSourceBuilder":
        """Stream a categorical CSV file in chunks (never loads it whole)."""
        from repro.data.loader import iter_csv_batches

        if self._schema is None:
            raise DataError("add_csv needs a builder constructed with a schema")
        with _obs.trace_span("streaming.add_csv", path=str(path)):
            for batch in iter_csv_batches(
                path,
                self._schema,
                columns=columns,
                has_header=has_header,
                batch_size=batch_size,
            ):
                self.add_records(batch)
        return self

    # ------------------------------------------------------------------ #
    # run merging
    # ------------------------------------------------------------------ #
    def _compact(self, spill_ok: bool = True) -> None:
        """Merge all sorted runs into one (sorted-unique codes, summed weights).

        Under a memory budget the compacted run is spilled to disk when it
        alone would keep the buffer near the threshold, so resident entries
        stay bounded regardless of the distinct-record count.
        """
        if len(self._runs) > 1:
            with _obs.trace_span(
                "streaming.compact", runs=len(self._runs), buffered=self._buffered
            ):
                codes = np.concatenate([run[0] for run in self._runs])
                weights = np.concatenate([run[1] for run in self._runs])
                unique, inverse = np.unique(codes, return_inverse=True)
                summed = np.bincount(
                    inverse.reshape(-1), weights=weights, minlength=unique.shape[0]
                )
                self._runs = [(unique, summed)]
                self._buffered = int(unique.shape[0])
            if _obs.ENABLED:
                _obs.counter_inc("streaming.compactions")
                _obs.gauge_set("streaming.buffered_entries", self._buffered)
        if (
            spill_ok
            and self._spiller is not None
            and self._runs
            and self._buffered >= max(1, self._merge_threshold // 2)
        ):
            codes, weights = self._runs[0]
            self._spiller.spill(codes, weights)
            self._runs = []
            self._buffered = 0
            if _obs.ENABLED:
                _obs.gauge_set("streaming.buffered_entries", 0)
                _obs.gauge_set("streaming.spilled_runs", self._spiller.run_count)

    def _merge_stream(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Stream the k-way merge of spilled runs + the in-memory remainder.

        Chunks cover disjoint increasing code ranges with fully summed
        weights — read-only over the spilled files, so the builder's state
        is untouched and the stream can be consumed more than once.
        """
        self._compact(spill_ok=False)
        runs: List[Tuple[np.ndarray, np.ndarray]] = []
        if self._spiller is not None:
            runs.extend(self._spiller.open_runs())
        runs.extend(self._runs)
        return merge_sorted_runs(runs)

    def arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The compacted ``(codes, weights)`` arrays ingested so far.

        Spilled runs are merged back and the result re-materialised in
        memory (use :meth:`write_store` + ``open_source`` to stay
        out-of-core); the spilled files are then deleted.
        """
        if self._spiller is not None and self._spiller.run_count:
            chunks = list(self._merge_stream())
            codes = np.concatenate([chunk[0] for chunk in chunks])
            weights = np.concatenate([chunk[1] for chunk in chunks])
            self._spiller.cleanup()
            self._runs = [(codes, weights)]
            self._buffered = int(codes.shape[0])
            return self._runs[0]
        self._compact(spill_ok=False)
        if not self._runs:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))
        return self._runs[0]

    @property
    def distinct_records(self) -> int:
        """Distinct codes ingested so far (forces a compaction)."""
        return int(self.arrays()[0].shape[0])

    # ------------------------------------------------------------------ #
    # building
    # ------------------------------------------------------------------ #
    def build(
        self,
        *,
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        executor: str = "thread",
    ) -> ShardedRecordSource:
        """Build the sharded source (auto-resolving the shard count from the
        ingested row count when ``shards`` is omitted)."""
        codes, weights = self.arrays()
        shard_count = resolve_shard_count(self._rows, shards, workers=workers)
        if _obs.ENABLED:
            _obs.counter_inc("streaming.builds")
        with _obs.trace_span(
            "streaming.build",
            rows=self._rows,
            distinct=int(codes.shape[0]),
            shards=shard_count,
        ):
            return self._build_source(codes, weights, shard_count, workers, executor)

    def _build_source(
        self,
        codes: np.ndarray,
        weights: np.ndarray,
        shard_count: int,
        workers: Optional[int],
        executor: str,
    ) -> ShardedRecordSource:
        return ShardedRecordSource(
            codes,
            weights,
            dimension=self._d,
            schema=self._schema,
            shards=shard_count,
            workers=workers,
            executor=executor,
            deduplicate=False,
        )

    def write_store(
        self,
        path: Union[str, Path],
        *,
        shards: Optional[int] = None,
        overwrite: bool = False,
    ) -> Path:
        """Stream everything ingested so far into an on-disk encoded source.

        The spilled runs and the in-memory remainder are k-way merged in
        bounded chunks straight into the shard files of
        :class:`~repro.store.encoded.EncodedSourceWriter` — the full arrays
        never exist in memory, so ingest → store stays within the memory
        budget at any dataset size.  The files are byte-identical to a
        one-shot :func:`~repro.store.encoded.write_source` of the same data
        and shard count.  Read-only over the builder's state: ingestion can
        continue after.
        """
        from repro.store.encoded import EncodedSourceWriter, resolve_store_shards

        shard_count = resolve_store_shards(max(self._buffered, self._rows, 1), shards)
        with _obs.trace_span(
            "streaming.write_store", path=str(path), shards=shard_count
        ):
            writer = EncodedSourceWriter(
                path,
                dimension=self._d,
                shards=shard_count,
                schema=self._schema,
                overwrite=overwrite,
            )
            with writer:
                for codes, weights in self._merge_stream():
                    writer.append(codes, weights)
        if _obs.ENABLED:
            _obs.counter_inc("streaming.stores_written")
        return writer.path

    def to_record_source(self) -> RecordSource:
        """The equivalent unsharded :class:`RecordSource` (for comparisons)."""
        codes, weights = self.arrays()
        return RecordSource(
            codes,
            weights,
            dimension=self._d,
            schema=self._schema,
            deduplicate=False,
        )
