"""Backend selection and data-input resolution for the release engine.

The engine accepts datasets, contingency tables, raw count vectors and
ready-made count sources.  :func:`as_count_source` normalises any of them
into a :class:`~repro.sources.base.CountSource` under a backend policy:

* ``"auto"`` — dense at or below the dense limit (bit-for-bit the historical
  pipeline), record-native above it;
* ``"dense"`` / ``"record"`` — explicit override (``"dense"`` raises a
  targeted :class:`~repro.exceptions.DataError` when the domain exceeds the
  limit instead of attempting the ``2**d`` allocation).

On top of the backend policy sit the shard knobs: ``shards=`` / ``workers=``
partition a record-native source into hash shards computed on a worker pool
(:class:`~repro.shards.sharded.ShardedRecordSource`).  Left unset, sources
auto-shard above :data:`~repro.shards.partition.AUTO_SHARD_RECORDS` records
on multi-core machines.  Sharding never changes values: seeded releases are
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


def sharded_record_source(
    source: RecordSource,
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    *,
    executor: str = "thread",
) -> CountSource:
    """Wrap a record source into shards when the resolved count exceeds 1.

    The shard count resolves from the source's distinct record count
    (explicit ``shards`` / ``workers`` win; see
    :func:`repro.shards.partition.resolve_shard_count`); a resolved count of
    1 returns the source unchanged.
    """
    from repro.shards.partition import resolve_shard_count
    from repro.shards.sharded import ShardedRecordSource

    count = resolve_shard_count(source.distinct_records, shards, workers=workers)
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
    the knob is ignored for inputs that are already in memory).
    """
    from repro.shards.partition import check_shard_knobs

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
    check_shard_knobs(shards, workers)
    schema = workload.schema
    if isinstance(data, CountSource):
        if data.dimension != workload.dimension:
            raise WorkloadError(
                f"count source over {data.dimension} bits does not match the "
                f"workload's {workload.dimension}-bit domain"
            )
        source_schema = getattr(data, "schema", None)
        if source_schema is not None and source_schema != schema:
            raise WorkloadError("count source schema does not match the workload schema")
        return data
    if isinstance(data, Dataset):
        if data.schema != schema:
            raise WorkloadError("dataset schema does not match the workload schema")
        return data.as_source(
            backend=backend, limit_bits=limit_bits, shards=shards, workers=workers
        )
    if isinstance(data, ContingencyTable):
        if data.schema != schema:
            raise WorkloadError("table schema does not match the workload schema")
        source = data.as_source(backend, limit_bits=limit_bits)
        if isinstance(source, RecordSource):
            return sharded_record_source(source, shards, workers)
        return source
    vector = np.asarray(data, dtype=np.float64)
    if vector.ndim != 1 or vector.shape[0] != workload.domain_size:
        raise WorkloadError(
            f"count vector must have length {workload.domain_size}, got shape {vector.shape}"
        )
    resolved = materialised_backend(
        workload.dimension, backend, limit_bits=limit_bits, shards=shards
    )
    if resolved == "record":
        return sharded_record_source(
            RecordSource.from_vector(
                vector, workload.dimension, schema=schema, limit_bits=limit_bits
            ),
            shards,
            workers,
        )
    return DenseCubeSource(vector, workload.dimension, schema=schema)


def materialised_backend(
    dimension: int,
    backend: str,
    *,
    limit_bits: Optional[int] = None,
    shards: Optional[int] = None,
) -> str:
    """Backend choice for data that already exists densely in memory.

    Wrapping an existing vector allocates nothing, so an explicit
    ``"dense"`` is honoured even above the dense limit (the limit guards
    *new* allocations); only the ``"auto"``/``"record"`` policies route
    through :func:`select_backend`.  Shared by :func:`as_count_source` and
    :meth:`repro.domain.contingency.ContingencyTable.as_source` so both
    resolve ``"auto"`` identically.
    """
    if shards is not None and int(shards) > 1:
        return select_backend(dimension, backend, limit_bits=limit_bits, shards=shards)
    if check_backend(backend) == "dense":
        return "dense"
    return select_backend(dimension, backend, limit_bits=limit_bits)
