"""Backend selection and data-input resolution for the release engine.

The engine accepts datasets, contingency tables, raw count vectors and
ready-made count sources.  :func:`as_count_source` normalises any of them
into a :class:`~repro.sources.base.CountSource`; the three in-memory kinds
all go through :func:`count_source`, the one place that picks their backend
and shard layout, so one dataset gets one layout whichever kind holds it.
The backend policy:

* ``"auto"`` — dense at or below the dense limit (bit-for-bit the historical
  pipeline), record-native above it;
* ``"dense"`` / ``"record"`` — explicit override (``"dense"`` raises a
  targeted :class:`~repro.exceptions.DataError` when the domain exceeds the
  limit instead of attempting the ``2**d`` allocation; a dense vector that
  already exists is wrapped whatever the limit).

On top of the backend policy sit the shard knobs: ``shards=`` / ``workers=``
partition a record-native source into hash shards computed on a worker pool
(:class:`~repro.shards.sharded.ShardedRecordSource`).  Left unset, sources
auto-shard at or above :data:`~repro.shards.partition.AUTO_SHARD_RECORDS`
rows — the source's total count, the same for every input kind — on
multi-core machines.  Sharding never changes values: seeded releases are
bitwise identical for any shard and worker count.

A :class:`str` / :class:`~pathlib.Path` input names an **encoded source
directory** (see :mod:`repro.store.encoded`): it is opened memory-mapped via
:func:`repro.store.encoded.open_source`, so the engine runs straight off the
on-disk shard files without materialising them.  The on-disk layout fixes
the shard count, so a path input rejects the ``shards=`` knob (``workers=``
still applies) and the ``"dense"`` backend.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Union

import numpy as np

from repro.domain.contingency import ContingencyTable
from repro.domain.dataset import Dataset
from repro.exceptions import DataError, WorkloadError
from repro.queries.workload import MarginalWorkload
from repro.sources.base import DENSE_LIMIT_BITS, CountSource, ensure_dense_allowed
from repro.sources.dense import DenseCubeSource
from repro.sources.record import RecordSource

#: The accepted backend policies.
BACKENDS = ("auto", "dense", "record")

SourceInput = Union[Dataset, ContingencyTable, np.ndarray, CountSource, str, Path]


def check_backend(backend: str) -> str:
    """Validate a backend policy string."""
    if backend not in BACKENDS:
        raise DataError(f"unknown backend {backend!r}; choose one of {BACKENDS}")
    return backend


def select_backend(
    dimension: int,
    backend: str = "auto",
    *,
    limit_bits: Optional[int] = None,
    shards: Optional[int] = None,
) -> str:
    """Resolve a backend policy into a concrete backend for ``d`` bits.

    ``"auto"`` keeps the dense pipeline (current behaviour, bitwise) up to
    the dense limit and switches to record-native above it; an explicit
    ``"dense"`` above the limit raises the targeted allocation error.  An
    explicit multi-shard request forces the record-native backend (shards
    are partitions of the record arrays) and conflicts with ``"dense"``.
    """
    check_backend(backend)
    limit = DENSE_LIMIT_BITS if limit_bits is None else int(limit_bits)
    if shards is not None and int(shards) > 1:
        if backend == "dense":
            raise DataError(
                "sharding partitions the record arrays; it cannot be combined "
                "with the dense backend (use backend='record' or 'auto')"
            )
        return "record"
    if backend == "record":
        return "record"
    if backend == "dense":
        ensure_dense_allowed(dimension, limit_bits=limit)
        return "dense"
    return "dense" if dimension <= limit else "record"


def count_source(
    data: Union[Dataset, ContingencyTable],
    backend: str = "auto",
    *,
    limit_bits: Optional[int] = None,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    executor: str = "thread",
) -> CountSource:
    """A dataset or a contingency table as a count source.

    The backend comes from :func:`select_backend`, except that an explicit
    ``"dense"`` wraps a dense vector that already exists (a table, or a
    dataset's cached table) whatever the limit: wrapping allocates nothing,
    and the limit guards only a dataset's new table build.  A record-native
    source holds the dataset's deduplicated encoding or the table's non-zero
    cells, and is split into
    :func:`~repro.shards.partition.resolve_shard_count` hash shards of its
    total count (explicit ``shards`` / ``workers`` win).
    """
    from repro.shards.partition import check_shard_knobs, resolve_shard_count
    from repro.shards.sharded import ShardedRecordSource

    check_shard_knobs(shards, workers)
    schema = data.schema
    if check_backend(backend) == "dense" and (shards is None or int(shards) <= 1):
        resolved = "dense"
    else:
        resolved = select_backend(
            schema.total_bits, backend, limit_bits=limit_bits, shards=shards
        )
    if resolved == "dense":
        if isinstance(data, Dataset):
            data = data.contingency_table(limit_bits=limit_bits)
        return DenseCubeSource.from_table(data)
    if isinstance(data, Dataset):
        codes, weights = data.encoded_counts()
        source = RecordSource(
            codes,
            weights,
            dimension=schema.total_bits,
            schema=schema,
            deduplicate=False,
            limit_bits=limit_bits,
        )
    else:
        source = RecordSource.from_vector(
            data.counts, schema.total_bits, schema=schema, limit_bits=limit_bits
        )
    count = resolve_shard_count(source.total, shards, workers=workers)
    if count <= 1:
        return source
    return ShardedRecordSource.from_record_source(
        source, shards=count, workers=workers, executor=executor
    )


def mapped_count_source(
    path: Union[str, Path],
    workload: MarginalWorkload,
    backend: str = "auto",
    *,
    limit_bits: Optional[int] = None,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    memory_budget: Optional[Union[int, str]] = None,
) -> CountSource:
    """Open an encoded source directory as a workload-validated count source.

    The directory's shard layout is authoritative — an explicit ``shards=``
    knob conflicts with it, and the mapped backend is record-native by
    construction, so ``backend="dense"`` is rejected rather than silently
    materialising ``2**d`` cells from disk.
    """
    from repro.store.encoded import open_source

    if backend == "dense":
        raise DataError(
            "an encoded source directory is memory-mapped and record-native; "
            "it cannot be opened with the dense backend"
        )
    if shards is not None:
        raise DataError(
            "the on-disk layout of an encoded source fixes its shard count; "
            "drop the shards= knob (workers= still applies)"
        )
    source = open_source(
        path,
        workers=workers,
        limit_bits=limit_bits,
        memory_budget=memory_budget,
    )
    if source.dimension != workload.dimension:
        raise WorkloadError(
            f"encoded source {Path(path)} spans {source.dimension} bits; the "
            f"workload's domain has {workload.dimension}"
        )
    source_schema = getattr(source, "schema", None)
    if (
        source_schema is not None
        and workload.schema is not None
        and source_schema != workload.schema
    ):
        raise WorkloadError("encoded source schema does not match the workload schema")
    return source


def as_count_source(
    data: SourceInput,
    workload: MarginalWorkload,
    backend: str = "auto",
    *,
    limit_bits: Optional[int] = None,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    memory_budget: Optional[Union[int, str]] = None,
) -> CountSource:
    """Resolve any engine data input into a count source over the workload's domain.

    A ready-made :class:`~repro.sources.base.CountSource` is passed through
    verbatim — handing the engine a concrete source *is* the backend (and
    shard-layout) choice, and overrides the policy and the shard knobs.  A
    ``str`` / ``Path`` names an encoded source directory, opened
    memory-mapped (``memory_budget`` caps its materialised batch roots;
    the knob is ignored for inputs that are already in memory).  Datasets,
    tables and count vectors (wrapped as a table over the workload's schema,
    sharing memory) resolve through :func:`count_source`.
    """
    check_backend(backend)
    if isinstance(data, (str, Path)):
        return mapped_count_source(
            data,
            workload,
            backend,
            limit_bits=limit_bits,
            shards=shards,
            workers=workers,
            memory_budget=memory_budget,
        )
    schema = workload.schema
    if isinstance(data, CountSource):
        from repro.shards.partition import check_shard_knobs

        check_shard_knobs(shards, workers)
        if data.dimension != workload.dimension:
            raise WorkloadError(
                f"count source over {data.dimension} bits does not match the "
                f"workload's {workload.dimension}-bit domain"
            )
        source_schema = getattr(data, "schema", None)
        if source_schema is not None and source_schema != schema:
            raise WorkloadError("count source schema does not match the workload schema")
        return data
    if isinstance(data, (Dataset, ContingencyTable)):
        if data.schema != schema:
            kind = "dataset" if isinstance(data, Dataset) else "table"
            raise WorkloadError(f"{kind} schema does not match the workload schema")
    else:
        vector = np.asarray(data, dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != workload.domain_size:
            raise WorkloadError(
                f"count vector must have length {workload.domain_size}, got shape {vector.shape}"
            )
        data = ContingencyTable(schema, vector, copy=False)
    return count_source(
        data, backend, limit_bits=limit_bits, shards=shards, workers=workers
    )
