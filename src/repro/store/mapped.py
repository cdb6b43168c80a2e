"""Memory-mapped record source: the kernels run straight off the page cache.

A :class:`MappedRecordSource` is a :class:`~repro.shards.sharded.ShardedRecordSource`
whose per-shard ``(codes, weights)`` arrays are ``np.memmap`` views of the
on-disk encoded-source files (see :mod:`repro.store.encoded`) instead of
in-memory copies.  The record kernel
(:func:`~repro.sources.record.worklist_marginals`: weighted byte-pair
histograms for members of at most two bits, projected bincount for the rest)
is unchanged — numpy reads the mapped pages directly (the histograms one row
chunk at a time), so nothing is copied into Python-owned memory before the
scan.
Because the on-disk layout *is* the stable-hash partition of the
deduplicated arrays, every per-shard marginal — and therefore every seeded
release — is bitwise identical to the in-memory backends.

Memory behaviour: file-backed pages touched by a scan do count toward RSS,
so after each shard's kernel finishes the wrapper advises the kernel to drop
that shard's pages (``madvise(MADV_DONTNEED)``).  Peak residency is bounded
by the largest shard times the worker count, not the dataset size — the
property `bench_oocore.py` pins.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import DataError
from repro.obs import runtime as _obs
from repro.resilience import faults as _faults
from repro.shards.partition import resolve_worker_count
from repro.shards.sharded import ShardedRecordSource, Worklist
from repro.sources.record import MAX_RECORD_BITS, StackedMarginals, worklist_marginals
from repro.store.layout import release_pages

#: Cost-model weight of streaming one mapped record entry from disk relative
#: to touching it in memory.  Page-cache reads are cheap but not free, and a
#: cold scan pays real I/O; the planner uses this to price direct member
#: scans (each a full pass over the mapped files) against one shared
#: batch-root scan refined in memory.
IO_COST_FACTOR = 4.0


def _mapped_shard_kernel(
    shard: int, codes: np.ndarray, weights: np.ndarray, work: Worklist
) -> StackedMarginals:
    """One shard's batched marginals, then drop the shard's mapped pages.

    The release keeps RSS flat across a multi-shard scan: pages stream in,
    feed the record kernel, and are returned to the OS before
    the next shard starts (per worker).  The page cache may retain them, so
    warm re-scans stay fast — only this process's residency is bounded.

    The ``store.read`` injection site stands in for a transient I/O error
    (e.g. ``EIO`` faulting in a cold page); the dispatch layer's retry
    policy re-runs the shard, and because the kernel is pure the recovered
    totals are bitwise identical.
    """
    if _faults.ENABLED:
        _faults.fire("store.read", shard=shard)
    if _obs.ENABLED:
        with _obs.trace_span("shards.kernel", shard=shard, records=int(codes.shape[0])):
            out = worklist_marginals(codes, weights, work)
        _obs.counter_inc("store.bytes_read", float(codes.nbytes + weights.nbytes))
    else:
        out = worklist_marginals(codes, weights, work)
    release_pages(codes)
    release_pages(weights)
    return out


class MappedRecordSource(ShardedRecordSource):
    """Sharded record source over memory-mapped on-disk shard arrays.

    Built by :func:`repro.store.encoded.open_source`; the constructor takes
    already-partitioned read-only arrays (the on-disk layout) plus the
    manifest's totals, so opening a source never scans the data files.

    It always runs on a thread pool: a process pool would pickle the memmap
    arrays, materialising every shard in memory and defeating the point of
    the format.
    """

    backend = "mapped-record"

    def __init__(
        self,
        shard_arrays: Sequence[Tuple[np.ndarray, np.ndarray]],
        *,
        dimension: int,
        schema: Optional[object] = None,
        workers: Optional[int] = None,
        memory_budget: Optional[int] = None,
        distinct_records: Optional[int] = None,
        total_weight: Optional[float] = None,
        root: Optional[Path] = None,
        bytes_mapped: int = 0,
    ):
        d = int(dimension)
        if not (1 <= d <= MAX_RECORD_BITS):
            raise DataError(
                f"record sources support 1..{MAX_RECORD_BITS} binary attributes, got {d}"
            )
        shards = tuple((codes, weights) for codes, weights in shard_arrays)
        if not shards:
            raise DataError("a mapped source needs at least one shard")
        self._d = d
        self._schema = schema
        self._shards = shards
        self._largest_shard = max(self.shard_sizes)
        self._distinct = (
            int(distinct_records)
            if distinct_records is not None
            else int(sum(part[0].shape[0] for part in shards))
        )
        # The manifest carries the exact totals so opening never touches the
        # data pages; recomputing (the fallback) streams every weight file.
        self._total = (
            float(total_weight)
            if total_weight is not None
            else float(sum(float(part[1].sum()) for part in shards))
        )
        self._workers = resolve_worker_count(len(shards), workers)
        self._executor_kind = "thread"
        self._memory_budget = None if memory_budget is None else int(memory_budget)
        self._root = Path(root) if root is not None else None
        self._bytes_mapped = int(bytes_mapped)

    # ------------------------------------------------------------------ #
    @property
    def root(self) -> Optional[Path]:
        """Directory of the encoded source this instance maps, when known."""
        return self._root

    @property
    def bytes_mapped(self) -> int:
        """Total bytes of shard files mapped into the address space."""
        return self._bytes_mapped

    def __repr__(self) -> str:
        where = f", root={self._root}" if self._root is not None else ""
        return (
            f"MappedRecordSource(d={self._d}, shards={self.shards}, "
            f"workers={self._workers}, distinct={self._distinct}{where})"
        )

    def describe_layout(self) -> str:
        base = super().describe_layout()
        mib = self._bytes_mapped / float(1 << 20)
        return f"{base}, memory-mapped ({mib:.1f} MiB on disk)"

    # ------------------------------------------------------------------ #
    def _shard_kernel_callable(self):
        """Dispatch with the page-releasing mapped kernel."""
        if _obs.ENABLED:
            _obs.gauge_set("store.bytes_mapped", float(self._bytes_mapped))
        return _mapped_shard_kernel

    # ------------------------------------------------------------------ #
    # planner hooks: scans stream from disk, derivations stay in memory
    # ------------------------------------------------------------------ #
    def marginal_costs(self, masks: np.ndarray) -> np.ndarray:
        """In-memory kernel cost plus an I/O term for streaming the shard
        files — every direct scan re-reads the mapped bytes.  Refining a
        member from a materialised root (:meth:`derive_costs`) touches only
        the root's in-memory cells and gets no I/O term, so the planner is
        steered toward one shared scan per batch on mapped backends."""
        parallel = max(1, min(self._workers, self.shards))
        io_records = self._distinct / parallel if parallel > 1 else self._distinct
        return super().marginal_costs(masks) + IO_COST_FACTOR * float(io_records)

    def max_root_cells(self) -> Optional[int]:
        """Memory ceiling on materialised batch roots under a budget.

        The streamed shard reduction holds the running total plus up to
        ``workers + 1`` in-flight shard results, each of root size; a root
        the planner would pick purely on I/O grounds must not let those few
        vectors outgrow the source's memory budget.  Trivial batches (the
        root *is* the requested marginal) are exempt — the workload demands
        that vector no matter what.
        """
        if self._memory_budget is None:
            return None
        resident = min(self._workers, self.shards) + 2
        return max(1 << 16, self._memory_budget // (8 * resident))
