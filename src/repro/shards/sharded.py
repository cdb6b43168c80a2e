"""The sharded record-native backend: parallel per-shard marginals, exact sums.

A :class:`ShardedRecordSource` partitions the deduplicated ``(codes,
weights)`` arrays of a :class:`~repro.sources.record.RecordSource` into
``S`` shards by a stable hash of the code
(:func:`~repro.shards.partition.shard_of_codes`), computes each requested
cuboid marginal **per shard** with exactly the record-native kernel
(:func:`~repro.sources.record.worklist_marginals`: weighted byte and
byte-pair histograms for members of at most two bits, projected codes +
weighted ``numpy.bincount`` for the rest) on a worker pool, and sums the shard
results in fixed shard order.

Why the result is bitwise identical to the unsharded source, for any shard
count ``S`` and any worker count:

* every code lands in exactly one shard, so the per-shard marginals are a
  partition of the full bincount's addends (each shard's kernel reproduces
  its own weighted bincount bit for bit, whichever of the two it ran);
* the count weights are integers, and float64 addition of integers below
  ``2**53`` is exact in *any* order — each per-shard cell value is the exact
  integer sum of its weights, and the cross-shard sum of those integers is
  again exact;
* results are collected and summed in submission (shard) order, never in
  completion order, so even non-integer weights stay deterministic for a
  fixed ``S`` regardless of worker count or scheduling.

Whole execution plans are dispatched in one call
(:meth:`ShardedRecordSource.marginals_for_batches` submits a single task per
shard covering every batch of the plan), so pool overhead is paid once per
workload instead of once per cuboid.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import DataError
from repro.obs import runtime as _obs
from repro.resilience import faults as _faults
from repro.resilience.retry import DEFAULT_RETRY_POLICY
from repro.shards.partition import (
    partition_codes,
    resolve_worker_count,
)
from repro.shards.pool import (
    POOL_FAILURES,
    check_executor_kind,
    get_pool,
    rebuild_pool,
    shard_error,
)
from repro.sources.base import CountSource, dense_allowed, ensure_dense_allowed
from repro.sources.record import (
    RecordSource,
    StackedMarginals,
    checked_worklist_marginals,
    with_pair_costs,
    worklist_marginals,
)
from repro.utils.bits import hamming_weight, popcount_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.domain.schema import Schema

#: Rough per-task dispatch overhead of the worker pool, in kernel cost units
#: (cells touched).  Used only by the planner's cost model.
DISPATCH_OVERHEAD = 256.0

Worklist = Sequence[Tuple[int, Sequence[int]]]


def _shard_kernel(
    shard: int, codes: np.ndarray, weights: np.ndarray, work: Worklist
) -> StackedMarginals:
    """:func:`~repro.sources.record.worklist_marginals` of one shard under
    the uniform ``(shard, codes, weights, work)`` dispatch signature.

    Module-level so process pools can pickle it.  Traced runs wrap the
    kernel in a per-shard span; in a process-pool child the observability
    flag is off (it is process-local), so only thread pools record them.
    """
    if _faults.ENABLED:
        _faults.fire("shards.task", shard=shard)
    if not _obs.ENABLED:
        return worklist_marginals(codes, weights, work)
    with _obs.trace_span("shards.kernel", shard=shard, records=int(codes.shape[0])):
        return worklist_marginals(codes, weights, work)


@dataclass
class _DispatchState:
    """Mutable state of one pooled reduction: the live executor, the bounded
    window of in-flight ``(shard, future)`` pairs, and the remaining pool
    rebuilds (one per dispatch — a pool that breaks twice is a real fault)."""

    pool: "Executor"
    pending: "deque" = field(default_factory=deque)
    rebuilds_left: int = 1


class ShardedRecordSource(CountSource):
    """Record-native count source partitioned into hash shards.

    Parameters mirror :class:`~repro.sources.record.RecordSource` plus the
    shard layout:

    shards:
        Number of hash partitions ``S`` (at least 1).
    workers:
        Worker pool size; defaults to ``min(shards, cores)``.  ``1`` runs
        the shards serially (still sharded, still bitwise identical).
    executor:
        ``"thread"`` (default) or ``"process"`` — see :mod:`repro.shards.pool`.

    Each shard task runs under
    :data:`~repro.resilience.retry.DEFAULT_RETRY_POLICY` at the dispatch
    layer (three immediate attempts on transient failures).  Retried tasks
    are pure and results are summed in fixed shard order, so recovered runs
    stay bitwise identical.
    """

    backend = "sharded-record"

    def __init__(
        self,
        codes: Union[np.ndarray, Sequence[int]],
        weights: Optional[Union[np.ndarray, Sequence[float]]] = None,
        *,
        dimension: int,
        shards: int,
        workers: Optional[int] = None,
        executor: str = "thread",
        schema: Optional["Schema"] = None,
        deduplicate: bool = True,
    ):
        # Reuse the unsharded source's validation + dedup, then partition.
        base = RecordSource(
            codes,
            weights,
            dimension=dimension,
            schema=schema,
            deduplicate=deduplicate,
        )
        self._init_from_arrays(
            base.codes,
            base.weights,
            base=base,
            shards=shards,
            workers=workers,
            executor=executor,
        )

    def _init_from_arrays(
        self,
        codes: np.ndarray,
        weights: np.ndarray,
        *,
        base: RecordSource,
        shards: int,
        workers: Optional[int],
        executor: str,
    ) -> None:
        shard_count = int(shards)
        if shard_count < 1:
            raise DataError(f"shard count must be at least 1, got {shards}")
        self._d = base.dimension
        self._schema = base.schema
        self._shards: Tuple[Tuple[np.ndarray, np.ndarray], ...] = tuple(
            partition_codes(np.asarray(codes), np.asarray(weights), shard_count)
        )
        self._distinct = int(sum(part[0].shape[0] for part in self._shards))
        self._largest_shard = max(self.shard_sizes)
        self._total = float(sum(float(part[1].sum()) for part in self._shards))
        self._workers = resolve_worker_count(shard_count, workers)
        self._executor_kind = check_executor_kind(executor)

    # ------------------------------------------------------------------ #
    # constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_record_source(
        cls,
        source: RecordSource,
        *,
        shards: int,
        workers: Optional[int] = None,
        executor: str = "thread",
    ) -> "ShardedRecordSource":
        """Shard an existing record source (codes are already deduplicated)."""
        instance = cls.__new__(cls)
        instance._init_from_arrays(
            source.codes,
            source.weights,
            base=source,
            shards=shards,
            workers=workers,
            executor=executor,
        )
        return instance

    @classmethod
    def from_records(
        cls,
        schema: "Schema",
        records: Union[np.ndarray, Sequence[Sequence[int]]],
        *,
        shards: int,
        workers: Optional[int] = None,
        executor: str = "thread",
    ) -> "ShardedRecordSource":
        """Encode, deduplicate and shard a record matrix over ``schema``."""
        codes = schema.encode_records(records)
        return cls(
            codes,
            dimension=schema.total_bits,
            schema=schema,
            shards=shards,
            workers=workers,
            executor=executor,
        )

    # ------------------------------------------------------------------ #
    @property
    def dimension(self) -> int:
        return self._d

    @property
    def schema(self) -> Optional["Schema"]:
        """The schema the codes are encoded under, when known."""
        return self._schema

    @property
    def total(self) -> float:
        return self._total

    @property
    def distinct_records(self) -> int:
        """Number of distinct stored records across all shards."""
        return self._distinct

    @property
    def shards(self) -> int:
        """Number of hash partitions."""
        return len(self._shards)

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        """Distinct record count per shard, in shard order."""
        return tuple(part[0].shape[0] for part in self._shards)

    @property
    def shard_arrays(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """Per-shard ``(codes, weights)`` arrays (read-only views)."""
        out = []
        for codes, weights in self._shards:
            code_view = codes.view()
            code_view.setflags(write=False)
            weight_view = weights.view()
            weight_view.setflags(write=False)
            out.append((code_view, weight_view))
        return tuple(out)

    def __repr__(self) -> str:
        return (
            f"ShardedRecordSource(d={self._d}, shards={self.shards}, "
            f"workers={self._workers}, distinct={self._distinct}, "
            f"total={self._total:g})"
        )

    def describe_layout(self) -> str:
        """One-line shard layout for ``explain`` output."""
        sizes = self.shard_sizes
        if len(sizes) > 8:
            shown = "/".join(str(s) for s in sizes[:8]) + f"/... ({len(sizes)} shards)"
        else:
            shown = "/".join(str(s) for s in sizes)
        return (
            f"{self.shards} shard(s) of {self._distinct} distinct records "
            f"(sizes {shown}), {self._workers} {self._executor_kind} worker(s)"
        )

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #
    def _shard_kernel_callable(self):
        """The per-shard kernel under the ``(shard, codes, weights, work)``
        signature; module-level so process pools can pickle it."""
        return _shard_kernel

    @staticmethod
    def _accumulate(
        totals: Optional[StackedMarginals], result: StackedMarginals
    ) -> StackedMarginals:
        """Fold one shard's marginals into the running totals (in place after
        the first shard): one add over the stacked narrow members."""
        if totals is None:
            return result
        totals.add(result)
        return totals

    def _reduce_shards(self, work: Worklist) -> Dict[int, np.ndarray]:
        """Stream the shard kernels into per-mask running totals.

        Shard results are consumed **in ascending shard order** — exactly the
        summation order of a gather-then-sum — so the totals are bitwise
        identical for any worker count.  At most ``workers + 1`` shard
        results are in flight at once (a bounded submission window, not a
        full gather), so reducing a wide marginal across many shards holds
        a couple of result-sized arrays, never one per shard.

        Failure handling, all value-preserving because shard kernels are
        pure and the sum order is fixed:

        * a shard task failing with a transient error (injected
          :class:`~repro.exceptions.TransientFault` or real ``OSError``) is
          resubmitted under the default retry policy;
        * a :class:`~concurrent.futures.process.BrokenProcessPool` (a worker
          died) rebuilds the shared pool **once** and replays every
          in-flight shard on the fresh pool;
        * anything past those budgets is a targeted
          :class:`~repro.exceptions.ShardError` naming the ``workers=`` /
          ``kind=`` configuration.
        """
        totals: Optional[StackedMarginals] = None
        kernel = self._shard_kernel_callable()
        policy = DEFAULT_RETRY_POLICY
        if _obs.ENABLED:
            _obs.counter_inc("shards.tasks", len(self._shards))
            _obs.gauge_set("shards.workers", self._workers)
            _obs.gauge_set("shards.count", len(self._shards))
        with _obs.trace_span(
            "shards.dispatch",
            shards=len(self._shards),
            workers=self._workers,
            executor=self._executor_kind,
            batches=len(work),
        ):
            if self._workers <= 1 or len(self._shards) <= 1:
                for index, (codes, weights) in enumerate(self._shards):
                    try:
                        result = policy.run(
                            kernel, index, codes, weights, work, what=f"shard {index}"
                        )
                    except BaseException as error:  # noqa: BLE001 - classified below
                        if not policy.is_retryable(error):
                            raise
                        raise shard_error(
                            error,
                            kind=self._executor_kind,
                            workers=self._workers,
                            shard=index,
                            attempts=policy.max_attempts,
                        ) from error
                    totals = self._accumulate(totals, result)
            else:
                totals = self._reduce_shards_pooled(kernel, work)
        return {} if totals is None else totals

    def _collect_shard(
        self, state: "_DispatchState", kernel, work: Worklist, index: int, future: "Future"
    ) -> StackedMarginals:
        """Resolve one in-flight shard, retrying transients and rebuilding a
        broken pool (once) with the whole pending window replayed."""
        policy = DEFAULT_RETRY_POLICY
        attempts = 1
        while True:
            try:
                if _faults.ENABLED:
                    _faults.fire("pool.worker", shard=index)
                return future.result()
            except BrokenProcessPool as error:
                if state.rebuilds_left <= 0:
                    raise shard_error(
                        error,
                        kind=self._executor_kind,
                        workers=self._workers,
                        shard=index,
                    ) from error
                state.rebuilds_left -= 1
                if _obs.ENABLED:
                    _obs.counter_inc("resilience.pool_rebuilds")
                state.pool = rebuild_pool(self._executor_kind, self._workers)
                future = self._resubmit(state.pool, kernel, work, index)
                # A broken pool killed every in-flight future with it; replay
                # the pending window on the fresh pool, preserving order.
                replayed = [
                    (held_index, self._resubmit(state.pool, kernel, work, held_index))
                    for held_index, _dead in state.pending
                ]
                state.pending.clear()
                state.pending.extend(replayed)
            except BaseException as error:  # noqa: BLE001 - classified below
                if not policy.is_retryable(error):
                    raise
                if attempts >= policy.max_attempts:
                    raise shard_error(
                        error,
                        kind=self._executor_kind,
                        workers=self._workers,
                        shard=index,
                        attempts=attempts,
                    ) from error
                if _obs.ENABLED:
                    _obs.counter_inc("resilience.retries")
                pause = policy.delay(attempts)
                if pause > 0:
                    time.sleep(pause)
                attempts += 1
                future = self._resubmit(state.pool, kernel, work, index)

    def _resubmit(self, pool, kernel, work: Worklist, index: int) -> "Future":
        """Submit one shard task, mapping submit-time pool failures (e.g. an
        unpicklable payload) to a targeted :class:`ShardError`."""
        codes, weights = self._shards[index]
        try:
            return pool.submit(kernel, index, codes, weights, work)
        except POOL_FAILURES as error:
            raise shard_error(
                error,
                kind=self._executor_kind,
                workers=self._workers,
                shard=index,
            ) from error

    def _reduce_shards_pooled(self, kernel, work: Worklist) -> Optional[StackedMarginals]:
        totals: Optional[StackedMarginals] = None
        state = _DispatchState(pool=get_pool(self._executor_kind, self._workers))
        window = self._workers + 1
        for index in range(len(self._shards)):
            state.pending.append(
                (index, self._resubmit(state.pool, kernel, work, index))
            )
            if len(state.pending) >= window:
                held_index, future = state.pending.popleft()
                totals = self._accumulate(
                    totals, self._collect_shard(state, kernel, work, held_index, future)
                )
        while state.pending:
            held_index, future = state.pending.popleft()
            totals = self._accumulate(
                totals, self._collect_shard(state, kernel, work, held_index, future)
            )
        return totals

    def marginal(self, mask: int) -> np.ndarray:
        return self.marginals_for_batches([(mask, (mask,))])[mask]

    def marginals_for_batches(
        self, batches: Sequence[Tuple[int, Sequence[int]]]
    ) -> Dict[int, np.ndarray]:
        return checked_worklist_marginals(self, batches, self._reduce_shards)

    def dense_vector(self) -> np.ndarray:
        ensure_dense_allowed(self._d)
        total = np.zeros(self.domain_size, dtype=np.float64)
        for codes, weights in self._shards:
            total += np.bincount(
                codes, weights=weights, minlength=self.domain_size
            ).astype(np.float64, copy=False)
        return total

    # ------------------------------------------------------------------ #
    # planner hooks
    # ------------------------------------------------------------------ #
    def marginal_costs(self, masks: np.ndarray) -> np.ndarray:
        """Per-shard projection in parallel, output cells per shard, plus a
        flat dispatch overhead per pool task.  Members of at most two bits
        share the pair kernels the shards would run instead, one per shard
        round over the largest shard."""
        parallel = max(1, min(self._workers, self.shards))
        serial_records = self._distinct / parallel if parallel > 1 else self._distinct
        per_shard_records = max(float(self._largest_shard), serial_records)
        cells = np.ldexp(1.0, popcount_array(masks)) * self.shards
        overhead = DISPATCH_OVERHEAD if self._workers > 1 else 0.0
        return with_pair_costs(
            per_shard_records + cells + overhead,
            masks,
            self._largest_shard,
            scale=per_shard_records / max(self._largest_shard, 1),
            extra=overhead,
        )

    def can_materialise(self, mask: int) -> bool:
        return dense_allowed(hamming_weight(mask))
