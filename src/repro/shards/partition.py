"""Stable hash partitioning of record codes, plus shard/worker resolution.

A :class:`~repro.shards.sharded.ShardedRecordSource` splits its deduplicated
``(codes, weights)`` arrays into ``S`` shards by a **stable** hash of the
code: the assignment depends only on the code value and the shard count —
never on insertion order, process, platform or Python hash randomisation —
so a streaming build and a one-shot build of the same data produce the same
layout, and re-opening a dataset re-creates it exactly.

The hash is the SplitMix64 finalizer (the avalanche stage of Vigna's
splitmix64 generator), computed vectorised on the uint64 view of the codes.
It is cheap (five ufunc passes), has full avalanche (every input bit flips
every output bit with probability ~1/2), and spreads the *structured* codes
produced by packed categorical attributes evenly across ``codes % S``
buckets where the raw low bits would not.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import DataError

#: Auto-shard threshold: sources with at least this many records (rows: a
#: dataset's length, the total count of a table, a count vector or a
#: streamed build) are sharded automatically when the backend resolves to
#: record-native and the machine has more than one core.  Thread shards
#: overlap their kernels only in part (1.3x on two shards of 2 vCPUs, see
#: :mod:`repro.shards.pool`), so above it sharding need not pay either;
#: pricing it is ROADMAP item 1, step 2, in
#: :func:`repro.sources.resolve.count_source`.
AUTO_SHARD_RECORDS = 100_000

#: Cap on the automatically chosen shard count.  More shards than cores adds
#: scheduling overhead without parallelism; eight covers common machines.
MAX_AUTO_SHARDS = 8


def _cpu_count() -> int:
    """Usable core count (monkeypatch point for deterministic tests)."""
    return os.cpu_count() or 1


def mix_codes(codes: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer over an int64/uint64 code array (vectorised)."""
    x = np.asarray(codes).astype(np.uint64)
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    x = x ^ (x >> np.uint64(31))
    return x


def shard_of_codes(codes: np.ndarray, shards: int) -> np.ndarray:
    """Stable shard id in ``[0, shards)`` for every code."""
    if shards < 1:
        raise DataError(f"shard count must be at least 1, got {shards}")
    return (mix_codes(codes) % np.uint64(shards)).astype(np.int64)


def partition_codes(
    codes: np.ndarray, weights: np.ndarray, shards: int
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Split ``(codes, weights)`` into ``shards`` stable-hash partitions.

    One stable sort by shard id and one gather per array, then each shard is
    a slice: the sort keeps relative order within a shard, so sorted inputs
    yield sorted per-shard arrays (the same arrays as a boolean selection
    per shard).  Every code lands in exactly one shard, which is what makes
    per-shard marginal sums exact reassemblies of the full marginal (integer
    weights sum exactly in float64 in any order).
    """
    ids = shard_of_codes(codes, shards)
    # numpy's stable sort radix-sorts ids of at most 16 bits.
    order = np.argsort(ids.astype(np.min_scalar_type(shards - 1)), kind="stable")
    codes, weights = codes[order], weights[order]
    bounds = [0, *np.cumsum(np.bincount(ids, minlength=shards)).tolist()]
    return [
        (codes[start:end], weights[start:end]) for start, end in zip(bounds, bounds[1:])
    ]


def check_shard_knobs(shards: Optional[int], workers: Optional[int]) -> None:
    """Validate explicit shard/worker knobs up front.

    Called by every resolution entry point so an invalid knob fails loudly
    even on paths that would otherwise never consult it (e.g. a domain that
    resolves to the dense backend).
    """
    if shards is not None and int(shards) < 1:
        raise DataError(f"shard count must be at least 1, got {shards}")
    if workers is not None and int(workers) < 1:
        raise DataError(f"worker count must be at least 1, got {workers}")


def resolve_shard_count(
    n_records: int, shards: Optional[int] = None, *, workers: Optional[int] = None
) -> int:
    """Resolve an explicit-or-auto shard count for ``n_records`` rows.

    An explicit ``shards`` wins.  An explicit ``workers > 1`` without a
    shard count shards to the worker count (workers would otherwise idle).
    Otherwise auto: one shard below :data:`AUTO_SHARD_RECORDS` or on a
    single-core machine, else ``min(cores, MAX_AUTO_SHARDS)``.
    """
    if shards is not None:
        count = int(shards)
        if count < 1:
            raise DataError(f"shard count must be at least 1, got {shards}")
        return count
    if workers is not None and int(workers) > 1:
        return int(workers)
    if int(n_records) < AUTO_SHARD_RECORDS:
        return 1
    return max(1, min(MAX_AUTO_SHARDS, _cpu_count()))


def resolve_worker_count(shards: int, workers: Optional[int] = None) -> int:
    """Resolve a worker count for ``shards`` shards (defaults to
    ``min(shards, cores)``; never more workers than shards)."""
    if workers is not None:
        count = int(workers)
        if count < 1:
            raise DataError(f"worker count must be at least 1, got {workers}")
        return min(count, max(int(shards), 1))
    return max(1, min(int(shards), _cpu_count()))
