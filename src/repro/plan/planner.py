"""Build an :class:`~repro.plan.plan.ExecutionPlan` from workload + strategy + budget.

The :class:`Planner` resolves everything that does not depend on the data:
it asks the strategy for its group table (via the
:meth:`~repro.strategies.base.Strategy.group_table` /
:meth:`~repro.strategies.base.Strategy.query_masks` contract), computes the
noise allocation for the requested budget, converts every group budget into
a sampler parameter in one vectorised call, and — for mask-indexed strategies —
packs the measured cuboids into the shared-ancestor batches the executor's
grouped subset-sum kernel runs.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.budget.allocation import NoiseAllocation, allocation_for
from repro.exceptions import WorkloadError
from repro.mechanisms.noise import gaussian_sigma_for_budget, laplace_scale_for_budget
from repro.mechanisms.privacy import PrivacyBudget
from repro.plan.cost import cost_marginal_batches
from repro.plan.lattice import MarginalBatch, plan_marginal_batches
from repro.plan.plan import ExecutionPlan
from repro.queries.workload import MarginalWorkload
from repro.sources.base import CountSource
from repro.strategies.base import Strategy


class Planner:
    """Plan private releases of one workload with one strategy.

    Parameters
    ----------
    workload:
        The marginal workload to answer.
    strategy:
        The strategy instance (already built for ``workload``).
    non_uniform:
        ``True`` for the paper's optimal non-uniform budgeting, ``False``
        for classic uniform noise.
    query_weights:
        Optional per-query weights of the variance objective.
    max_batch_bits:
        Optional cap on the root-union order of the marginal kernel's
        batches (defaults to :func:`repro.plan.lattice.default_batch_bits`).
    """

    def __init__(
        self,
        workload: MarginalWorkload,
        strategy: Strategy,
        *,
        non_uniform: bool = True,
        query_weights: Optional[Sequence[float]] = None,
        max_batch_bits: Optional[int] = None,
    ):
        if strategy.workload is not workload and strategy.workload.masks != workload.masks:
            raise WorkloadError("the strategy was built for a different workload")
        self._workload = workload
        self._strategy = strategy
        self._non_uniform = non_uniform
        # Unit weights reuse the strategy's cached table, which the
        # executor's allocation check reads too.
        self._groups = (
            strategy.default_group_table()
            if query_weights is None
            else strategy.group_table(query_weights)
        )
        self._query_weights = np.array(
            strategy.resolve_query_weights(query_weights), dtype=np.float64
        )
        self._query_weights.setflags(write=False)
        self._kind = strategy.measurement_kind
        self._batches: Tuple[MarginalBatch, ...] = ()
        if self._kind in ("marginal", "fourier"):
            try:
                masks = strategy.query_masks()
            except WorkloadError:
                # A legacy / third-party Strategy subclass that implements the
                # original ABC (group_specs / measure / estimate) but not the
                # mask-indexed planner contract: the executor falls back to
                # delegating measurement to the strategy itself.
                self._kind = "custom"
            else:
                if len(masks) != len(self._groups):
                    raise WorkloadError(
                        f"strategy {strategy.name!r} reports {len(masks)} query "
                        f"masks for {len(self._groups)} groups"
                    )
                if self._groups.masks != tuple(masks):
                    self._groups = self._groups.replace(masks=masks)
        if self._kind == "marginal":
            self._batches = plan_marginal_batches(
                self._groups.masks, workload.dimension, max_bits=max_batch_bits
            )

    # ------------------------------------------------------------------ #
    @property
    def strategy(self) -> Strategy:
        """The strategy this planner measures."""
        return self._strategy

    @property
    def batches(self) -> Tuple[MarginalBatch, ...]:
        """The marginal kernel's batches (empty for other kernels)."""
        return self._batches

    def allocation(self, budget: PrivacyBudget) -> NoiseAllocation:
        """The noise allocation a plan for ``budget`` would use."""
        return allocation_for(
            self._groups, budget, non_uniform=self._non_uniform
        )

    # ------------------------------------------------------------------ #
    def plan(
        self, budget: PrivacyBudget, *, source: Optional[CountSource] = None
    ) -> ExecutionPlan:
        """Resolve the full execution plan for ``budget``.

        When a :class:`~repro.sources.base.CountSource` is supplied, the
        marginal kernel's batches are priced against that backend
        (:func:`repro.plan.cost.cost_marginal_batches`) and the
        root-vs-direct decision is recorded on the plan for the executor to
        honour and ``explain`` to report.  Without a source the plan stays
        fully data-independent and the executor prices the batches against
        its source at run time, with the same cost model.
        """
        return self.plan_allocation(self.allocation(budget), source=source)

    def plan_allocation(
        self, allocation: NoiseAllocation, *, source: Optional[CountSource] = None
    ) -> ExecutionPlan:
        """:meth:`plan` for an allocation computed beforehand."""
        # Every positive group budget converted in one call; the division is
        # elementwise, so each scale equals the scalar helper's bit for bit.
        budgets = allocation.table.budgets
        positive = budgets > 0.0
        scales = np.zeros_like(budgets)
        if allocation.is_pure:
            scales[positive] = laplace_scale_for_budget(budgets[positive])
        else:
            scales[positive] = gaussian_sigma_for_budget(
                budgets[positive], allocation.budget.delta
            )
        row_budgets = None
        if self._kind == "matrix":
            row_budgets = self._strategy.row_budgets(allocation)
            row_budgets.setflags(write=False)
        batch_costs = None
        if source is not None and self._kind == "marginal" and self._batches:
            batch_costs = cost_marginal_batches(source, self._batches)
        return ExecutionPlan(
            workload=self._workload,
            strategy_name=self._strategy.name,
            kind=self._kind,
            allocation=allocation,
            table=allocation.table.replace(masks=self._groups.masks, noise_scales=scales),
            batches=self._batches,
            query_weights=self._query_weights,
            row_budgets=row_budgets,
            inherently_consistent=self._strategy.inherently_consistent,
            batch_costs=batch_costs,
        )
