"""The end-to-end release engine (Figure 3 of the paper).

:class:`MarginalReleaseEngine` is a thin facade over the plan → execute →
finalize architecture of :mod:`repro.plan`:

1. build (or accept) a strategy for the workload — Step 1;
2. **plan**: a :class:`~repro.plan.planner.Planner` resolves the noise
   allocation (the closed-form optimal non-uniform allocation of Section 3.1
   or the classic uniform allocation — Step 2) together with the batched
   kernel layout into an immutable
   :class:`~repro.plan.plan.ExecutionPlan`;
3. **execute**: an :class:`~repro.plan.executor.Executor` measures the
   strategy queries with batched kernels and one vectorized noise draw
   (bitwise-identical to the historical per-group draws — see the plan's
   ``seed_policy``);
4. **finalize**: reconstruct the workload answers and, unless the strategy
   is inherently consistent, project them onto the consistent subspace via
   Fourier coefficients (Sections 3.3 / 4.3) — Step 3.

The convenience function :func:`release_marginals` covers the common
"one dataset, one workload, one call" use case.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, Optional, Sequence, Union

import numpy as np

from repro.budget.allocation import NoiseAllocation
from repro.core.result import ReleaseResult
from repro.domain.contingency import ContingencyTable
from repro.domain.dataset import Dataset
from repro.exceptions import DataError, WorkloadError
from repro.mechanisms.privacy import PrivacyBudget
from repro.obs import runtime as _obs
from repro.plan.executor import Executor
from repro.plan.plan import ExecutionPlan
from repro.plan.planner import Planner
from repro.resilience.checkpoint import ReleaseCheckpoint
from repro.queries.workload import MarginalWorkload
from repro.recovery.consistency import make_consistent
from repro.sources import (
    CountSource,
    as_count_source,
    check_backend,
    dense_allowed,
    select_backend,
)
from repro.sources import base as _sources_base
from repro.strategies.base import Strategy
from repro.strategies.registry import make_strategy
from repro.utils.rng import RngLike, ensure_rng

DataInput = Union[Dataset, ContingencyTable, np.ndarray, CountSource, str, Path]
BudgetInput = Union[PrivacyBudget, float]
StrategyInput = Union[str, Strategy]


def _resolve_budget(budget: BudgetInput) -> PrivacyBudget:
    if isinstance(budget, PrivacyBudget):
        return budget
    return PrivacyBudget.pure(float(budget))


class MarginalReleaseEngine:
    """Reusable engine binding a workload to a strategy and a budgeting mode.

    Parameters
    ----------
    workload:
        The marginal workload to answer.
    strategy:
        A strategy instance, or one of the registered names
        (``"I"``, ``"Q"``, ``"F"``, ``"C"``).
    non_uniform:
        ``True`` (default) for the paper's optimal non-uniform budgeting,
        ``False`` for classic uniform noise.
    consistency:
        Whether to project the answers onto the consistent subspace when the
        strategy does not already guarantee consistency.
    query_weights:
        Optional per-query weights for the variance objective (``a`` in the
        paper); ``None`` minimises the plain sum of variances.
    backend:
        Count backend policy: ``"auto"`` (dense at or below the dense limit,
        record-native above — the default), ``"dense"`` or ``"record"``.
        The backend only changes *how* exact counts are computed; seeded
        releases are bitwise identical across backends.
    shards:
        Number of hash shards for the record-native backend (marginals are
        computed per shard on a worker pool and summed in fixed shard
        order).  ``None`` auto-shards at or above the row-count threshold on
        multi-core machines; sharding never changes values — seeded
        releases are bitwise identical for any shard and worker count.
    workers:
        Worker pool size for sharded measurement (defaults to
        ``min(shards, cores)``).
    memory_budget:
        Approximate memory ceiling (bytes, or a string like ``"256M"``) for
        out-of-core inputs.  Applies when ``data`` is a path to an encoded
        source directory (see :mod:`repro.store`): the planner caps the
        mapped source's materialised batch roots against it.  Ignored for
        in-memory inputs.
    """

    def __init__(
        self,
        workload: MarginalWorkload,
        strategy: StrategyInput = "F",
        *,
        non_uniform: bool = True,
        consistency: bool = True,
        query_weights: Optional[Sequence[float]] = None,
        backend: str = "auto",
        shards: Optional[int] = None,
        workers: Optional[int] = None,
        memory_budget: Optional[Union[int, str]] = None,
    ):
        from repro.shards.partition import check_shard_knobs

        self._workload = workload
        self._backend = check_backend(backend)
        check_shard_knobs(shards, workers)
        if shards is not None and int(shards) > 1:
            # Fails fast on the dense-backend conflict (sharding partitions
            # record arrays); auto/record policies resolve to "record".
            select_backend(workload.dimension, backend, shards=shards)
        self._shards = shards
        self._workers = workers
        self._memory_budget = memory_budget
        if isinstance(strategy, Strategy):
            if strategy.workload is not workload and strategy.workload.masks != workload.masks:
                raise WorkloadError("the strategy was built for a different workload")
            self._strategy = strategy
        else:
            self._strategy = make_strategy(strategy, workload)
        self._non_uniform = non_uniform
        self._consistency = consistency
        self._query_weights = query_weights
        self._planner = Planner(
            workload,
            self._strategy,
            non_uniform=non_uniform,
            query_weights=query_weights,
        )
        self._executor = Executor(self._strategy)

    # ------------------------------------------------------------------ #
    @property
    def strategy(self) -> Strategy:
        """The strategy used by this engine."""
        return self._strategy

    @property
    def non_uniform(self) -> bool:
        """Whether the optimal non-uniform budgeting is used."""
        return self._non_uniform

    @property
    def planner(self) -> Planner:
        """The planner resolving budgets into execution plans."""
        return self._planner

    @property
    def executor(self) -> Executor:
        """The executor running plans with batched kernels."""
        return self._executor

    @property
    def resolved_backend(self) -> str:
        """The concrete backend this engine measures with (``"dense"``/``"record"``).

        Pure introspection — never raises.  A forced ``"dense"`` above the
        dense limit still resolves to ``"dense"`` here; the release itself
        fails with the targeted allocation error.  An explicit multi-shard
        request resolves to ``"record"`` (sharding partitions record
        arrays).  When :meth:`release` is handed a ready-made
        :class:`~repro.sources.base.CountSource`, that source's own backend
        wins over this policy.
        """
        if self._backend != "auto":
            return self._backend
        return select_backend(self._workload.dimension, "auto", shards=self._shards)

    def allocation(self, budget: BudgetInput) -> NoiseAllocation:
        """The noise allocation this engine would use for ``budget``."""
        return self._planner.allocation(_resolve_budget(budget))

    def build_plan(self, budget: BudgetInput) -> ExecutionPlan:
        """The execution plan this engine would run for ``budget``."""
        return self._planner.plan(_resolve_budget(budget))

    def explain(self, budget: BudgetInput, data: Optional[DataInput] = None) -> str:
        """Human-readable description of the plan for ``budget``, including
        which count backend the engine will measure from.

        With ``data``, the actual count source is resolved so the
        explanation additionally reports the shard layout / worker count and
        the backend-aware per-batch cost estimates the release would use; a
        data input the configured backend cannot serve (e.g. a forced dense
        backend over the limit) falls back to the data-independent
        explanation with a note instead of raising.

        While observability is on (:func:`repro.obs.tracing`) and the active
        recorder has already seen releases, the explanation closes with the
        *observed* per-stage timings of those runs.
        """
        policy = (
            f"policy {self._backend!r}"
            if self._backend != "auto"
            else (
                f"auto: dense up to 2**{_sources_base.DENSE_LIMIT_BITS} cells, "
                "record-native above"
            )
        )
        source = None
        if data is not None:
            try:
                source = self._resolve_source(data)
            except DataError:
                source = None
        resolved = self.resolved_backend if source is None else source.backend
        if (
            source is None
            and self.resolved_backend == "dense"
            and not dense_allowed(self._workload.dimension)
        ):
            policy += "; exceeds the dense limit, dataset releases will fail"
        plan = self._planner.plan(_resolve_budget(budget), source=source)
        lines = [
            plan.describe(),
            f"data backend      : {resolved} ({policy})",
        ]
        if source is not None:
            lines.append(f"source layout     : {source.describe_layout()}")
        if _obs.ENABLED:
            active = _obs.recorder()
            durations = active.durations_by_name() if active is not None else {}
            observed = {
                name: stats
                for name, stats in durations.items()
                if name.startswith("engine.")
            }
            if observed:
                lines.append("observed timings  : (from the active trace recorder)")
                for name, stats in observed.items():
                    lines.append(
                        f"  {name:<16}: {int(stats['count'])} span(s), "
                        f"mean {stats['mean'] * 1e3:.3f} ms, "
                        f"max {stats['max'] * 1e3:.3f} ms"
                    )
        return "\n".join(lines)

    def expected_total_variance(self, budget: BudgetInput) -> float:
        """Analytic total weighted output variance for ``budget``."""
        return self.allocation(budget).total_weighted_variance()

    def _resolve_source(self, data: DataInput) -> CountSource:
        """Resolve a data input under this engine's backend + shard policy."""
        return as_count_source(
            data,
            self._workload,
            self._backend,
            shards=self._shards,
            workers=self._workers,
            memory_budget=self._memory_budget,
        )

    @staticmethod
    def _resolve_checkpoint(
        checkpoint: Optional[Union[str, Path, "ReleaseCheckpoint"]],
    ) -> Optional["ReleaseCheckpoint"]:
        if checkpoint is None or isinstance(checkpoint, ReleaseCheckpoint):
            return checkpoint
        return ReleaseCheckpoint(checkpoint)

    # ------------------------------------------------------------------ #
    def release(
        self,
        data: DataInput,
        budget: BudgetInput,
        *,
        rng: RngLike = None,
        checkpoint: Optional[Union[str, Path, "ReleaseCheckpoint"]] = None,
        resume: bool = False,
    ) -> ReleaseResult:
        """Produce a differentially private release of the workload on ``data``.

        ``data`` may be a :class:`~repro.domain.dataset.Dataset`, a
        :class:`~repro.domain.contingency.ContingencyTable`, a dense count
        vector, a ready-made :class:`~repro.sources.base.CountSource`, or a
        path to an encoded source directory (memory-mapped via
        :mod:`repro.store`; counts stream off disk); the engine's backend
        policy (plus the shard knobs) decides how exact counts are computed.
        The plan is costed against the resolved source so the executor's
        root-vs-direct decisions match the backend.

        ``checkpoint`` (a directory path or a ready
        :class:`~repro.resilience.checkpoint.ReleaseCheckpoint`) stages each
        measured batch crash-safely; after a kill, re-running the same
        release with ``resume=True`` replays the staged batches and — given
        the same ``rng`` seed — reproduces the uninterrupted release bit for
        bit.  Checkpoints require a ``"marginal"``-kernel strategy
        (``"Q"``/``"I"``/``"C"``).
        """
        source = self._resolve_source(data)
        resolved_budget = _resolve_budget(budget)
        generator = ensure_rng(rng)
        store = self._resolve_checkpoint(checkpoint)
        timings: Dict[str, float] = {}

        observing = _obs.ENABLED
        if observing:
            _obs.counter_inc("engine.releases")
        release_span = _obs.trace_span(
            "engine.release",
            strategy=self._strategy.name,
            backend=source.backend,
            epsilon=resolved_budget.epsilon,
        )
        with release_span:
            start = time.perf_counter()
            with _obs.trace_span("engine.plan"):
                plan = self._planner.plan(resolved_budget, source=source)
            timings["budgeting"] = time.perf_counter() - start

            start = time.perf_counter()
            with _obs.trace_span("engine.measure"):
                measurement = self._executor.measure(
                    plan, source, generator, checkpoint=store, resume=resume
                )
            timings["measurement"] = time.perf_counter() - start

            start = time.perf_counter()
            with _obs.trace_span("engine.recovery"):
                estimates = self._strategy.estimate(measurement)
            timings["recovery"] = time.perf_counter() - start

            consistent = self._strategy.inherently_consistent
            if self._consistency and not consistent:
                start = time.perf_counter()
                with _obs.trace_span("engine.consistency"):
                    projection = make_consistent(
                        self._workload, estimates, plan=plan
                    )
                estimates = projection.marginals
                consistent = True
                timings["consistency"] = time.perf_counter() - start

        if observing:
            for stage, seconds in timings.items():
                _obs.observe(f"engine.{stage}_seconds", seconds)

        return ReleaseResult(
            workload=self._workload,
            marginals=estimates,
            strategy_name=self._strategy.name,
            allocation=plan.allocation,
            consistent=consistent,
            expected_total_variance=plan.expected_total_variance(),
            elapsed_seconds=timings,
        )


def release_marginals(
    data: DataInput,
    workload: MarginalWorkload,
    budget: BudgetInput,
    *,
    strategy: StrategyInput = "F",
    non_uniform: bool = True,
    consistency: bool = True,
    query_weights: Optional[Sequence[float]] = None,
    backend: str = "auto",
    shards: Optional[int] = None,
    workers: Optional[int] = None,
    memory_budget: Optional[Union[int, str]] = None,
    rng: RngLike = None,
    checkpoint: Optional[Union[str, Path, ReleaseCheckpoint]] = None,
    resume: bool = False,
) -> ReleaseResult:
    """One-shot private release of a marginal workload.

    Parameters mirror :class:`MarginalReleaseEngine`; ``budget`` may be a
    plain ``float`` (interpreted as a pure-DP epsilon) or a
    :class:`~repro.mechanisms.privacy.PrivacyBudget`.  ``checkpoint`` /
    ``resume`` stage and replay measured batches crash-safely — see
    :meth:`MarginalReleaseEngine.release`.

    Examples
    --------
    >>> from repro import release_marginals, all_k_way
    >>> from repro.data import synthetic_nltcs
    >>> data = synthetic_nltcs(n_records=1000, rng=0)
    >>> workload = all_k_way(data.schema, 2)
    >>> result = release_marginals(data, workload, budget=1.0, strategy="F", rng=0)
    >>> len(result.marginals) == len(workload)
    True
    """
    engine = MarginalReleaseEngine(
        workload,
        strategy,
        non_uniform=non_uniform,
        consistency=consistency,
        query_weights=query_weights,
        backend=backend,
        shards=shards,
        workers=workers,
        memory_budget=memory_budget,
    )
    return engine.release(data, budget, rng=rng, checkpoint=checkpoint, resume=resume)
