"""The immutable execution plan of a private release.

An :class:`ExecutionPlan` is the resolved, data-independent description of
one release: which strategy queries will be measured (by group), with which
noise scale, batched how, and what the finalize stage will do.  It is built
by a :class:`~repro.plan.planner.Planner` from (workload, strategy, budget)
and consumed by an :class:`~repro.plan.executor.Executor`; nothing in it
depends on the count vector, so one plan can execute many releases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.budget.allocation import NoiseAllocation
from repro.budget.grouping import GroupTable
from repro.plan.cost import BatchCost
from repro.plan.lattice import MarginalBatch
from repro.queries.workload import MarginalWorkload

#: How the executor consumes the random stream.  Drawing one vectorized
#: Laplace/Gaussian sample batch with a per-cell scale vector consumes the
#: generator stream exactly like the historical sequential per-group draws,
#: so seeded releases reproduce the pre-plan pipeline bit for bit.
SINGLE_STREAM_SEED_POLICY = (
    "single-stream: one vectorized draw over all measured cells in group "
    "order (bitwise-identical to sequential per-group draws from the same "
    "generator)"
)


@dataclass(frozen=True)
class PlanGroup:
    """One measured group of the plan (one strategy group): a row of the
    plan's :class:`~repro.budget.grouping.GroupTable`, built on demand.

    Attributes
    ----------
    label:
        The group label, matching the strategy's
        :class:`~repro.budget.grouping.GroupSpec` and the allocation.
    mask:
        Cuboid / coefficient mask of the group for mask-indexed kernels
        (``None`` for explicit-matrix strategies).
    size:
        Number of cells (strategy rows) the group measures.
    constant:
        The group sensitivity constant ``C_r`` of Definition 3.1.
    weight:
        The recovery weight ``s_r`` (how strongly this group's noise shows up
        in the weighted output variance).
    budget:
        The per-row privacy budget ``eta_r`` allocated to the group.
    noise_scale:
        Resolved sampler parameter: the Laplace scale ``1 / eta`` for pure
        DP, the Gaussian ``sigma`` otherwise; ``None`` when the group is not
        measured (zero budget — its cells are released as NaN).
    """

    label: str
    mask: Optional[int]
    size: int
    constant: float
    weight: float
    budget: float
    noise_scale: Optional[float]

    @property
    def measured(self) -> bool:
        """``True`` when the group receives a positive budget."""
        return self.noise_scale is not None


@dataclass(frozen=True, eq=False)
class ExecutionPlan:
    """Immutable description of a planned release (plan → execute → finalize).

    ``eq=False``: the ndarray fields would make a generated ``__eq__`` raise;
    plans compare by identity.

    Attributes
    ----------
    workload:
        The workload the release answers.
    strategy_name:
        Name of the strategy the plan was built for.
    kind:
        The measurement kernel: ``"marginal"`` (batched subset sums),
        ``"fourier"`` (Hadamard coefficients), ``"matrix"`` (dense
        strategy-matrix product) or ``"custom"`` (a strategy without the
        mask-indexed planner contract; measurement is delegated to its own
        ``measure()``).
    allocation:
        The per-group noise allocation, including the privacy budget.
    table:
        The groups as columns, in allocation order — the order the executor
        draws noise in: the allocation's table plus the ``masks`` of
        mask-indexed kernels and the sampler ``noise_scales`` (the Laplace
        scale ``1 / eta`` for pure DP, the Gaussian ``sigma`` otherwise; 0
        for a group without budget, whose cells are released as NaN).
        Group ``r``'s cells sit at ``table.offsets[r]:offsets[r + 1]`` of
        the flat exact and noisy vectors.  :attr:`groups` views it as
        :class:`PlanGroup` rows.
    batches:
        Grouped subset-sum batches of the marginal kernel (empty for the
        other kernels).
    query_weights:
        Resolved per-query weights of the variance objective (all ones when
        the engine was built without explicit weights).  Resolved once here
        and reused by the finalize (consistency) stage instead of being
        re-derived per release; with explicit weights the L2 projection
        therefore minimises the same weighted objective as the allocation.
    row_budgets:
        Per-strategy-row budgets for the ``"matrix"`` kernel (``None``
        otherwise).
    inherently_consistent:
        Whether the strategy's own recovery already yields consistent
        marginals (the finalize stage then skips the projection).
    batch_costs:
        Per-batch root-vs-direct decisions of the backend-aware cost model
        (:func:`repro.plan.cost.cost_marginal_batches`), aligned with
        ``batches``; ``None`` when the plan was built without a source (the
        executor then prices the batches against the source it is handed,
        with the same cost model).  Either way the exact values are
        identical — the decision only changes how they are computed.
    seed_policy:
        Documentation of how the executor consumes the random stream.
    """

    workload: MarginalWorkload
    strategy_name: str
    kind: str
    allocation: NoiseAllocation
    table: GroupTable
    batches: Tuple[MarginalBatch, ...]
    query_weights: np.ndarray
    row_budgets: Optional[np.ndarray] = None
    inherently_consistent: bool = False
    batch_costs: Optional[Tuple[BatchCost, ...]] = None
    seed_policy: str = SINGLE_STREAM_SEED_POLICY

    # ------------------------------------------------------------------ #
    @property
    def is_pure(self) -> bool:
        """``True`` for a pure-DP (Laplace) plan."""
        return self.allocation.is_pure

    @property
    def mechanism(self) -> str:
        """``"laplace"`` or ``"gaussian"``."""
        return self.allocation.mechanism

    @property
    def groups(self) -> Tuple[PlanGroup, ...]:
        """One :class:`PlanGroup` view per row of :attr:`table`."""
        table = self.table
        return tuple(
            PlanGroup(label, mask, size, constant, weight, eta, scale if eta > 0.0 else None)
            for label, mask, size, constant, weight, eta, scale in zip(
                table.labels,
                table.mask_column(),
                table.sizes.tolist(),
                table.constants.tolist(),
                table.weights.tolist(),
                table.budgets.tolist(),
                table.noise_scales.tolist(),
            )
        )

    @property
    def measured(self) -> np.ndarray:
        """Per group: does it receive a positive budget?"""
        return self.table.budgets > 0.0

    @property
    def total_cells(self) -> int:
        """Total number of strategy cells described by the plan."""
        return self.table.total_cells

    @property
    def measured_cells(self) -> int:
        """Number of cells that actually receive noise (positive budget)."""
        return int(self.table.sizes[self.measured].sum())

    @property
    def full_passes(self) -> int:
        """Full ``O(2**d)`` passes the marginal kernel performs (0 otherwise)."""
        return len(self.batches)

    def group_variance_array(self) -> np.ndarray:
        """:meth:`group_variances` as an array aligned with :attr:`table`."""
        with np.errstate(invalid="ignore"):
            return self.table.weights * self.allocation.row_variances()

    def group_variances(self) -> Dict[str, float]:
        """Expected contribution of each group to the weighted output variance.

        The contribution of group ``r`` is ``s_r * Var(row noise in group r)``
        (NaN for a group of zero weight and no budget); summing over groups
        gives :meth:`expected_total_variance`.
        """
        return dict(zip(self.table.labels, self.group_variance_array().tolist()))

    def expected_total_variance(self) -> float:
        """The objective value ``sum_r s_r * Var(row noise in group r)``.

        Matches
        :meth:`repro.budget.allocation.NoiseAllocation.total_weighted_variance`
        exactly.
        """
        return self.allocation.total_weighted_variance()

    # ------------------------------------------------------------------ #
    def describe(self, *, max_groups: int = 12) -> str:
        """Human-readable plan summary (the CLI's ``release --explain``)."""
        budget = self.allocation.budget
        privacy = (
            f"epsilon = {budget.epsilon:g}"
            if budget.is_pure
            else f"epsilon = {budget.epsilon:g}, delta = {budget.delta:g}"
        )
        lines = [
            f"workload          : {self.workload.name} ({len(self.workload)} queries, "
            f"{self.workload.total_cells} cells, d = {self.workload.dimension})",
            f"strategy          : {self.strategy_name} ({self.kind} kernel)",
            f"privacy           : {privacy} ({self.allocation.kind} budgeting, "
            f"{self.mechanism} noise)",
            f"expected variance : {self.expected_total_variance():.4g}",
            f"seed policy       : {self.seed_policy}",
            "",
            "stage 1 — plan    : "
            f"{len(self.table)} groups, {self.total_cells} strategy cells "
            f"({self.measured_cells} measured)",
        ]
        if self.kind == "marginal":
            derived = sum(
                len(batch.members) - (batch.root in batch.members)
                for index, batch in enumerate(self.batches)
                if self.batch_costs is None or self.batch_costs[index].use_root
            )
            lines.append(
                "stage 2 — execute : "
                f"{len(self.batches)} batched subset-sum passes over 2**"
                f"{self.workload.dimension} cells, {derived} marginals derived "
                "from batch roots, one vectorized "
                f"{self.mechanism} draw over {self.measured_cells} cells"
            )
            for index, batch in enumerate(self.batches):
                line = (
                    f"  batch {index:>3}      : root {batch.root:#x} "
                    f"({batch.root_cells} cells) -> {len(batch.members)} marginal(s)"
                )
                if self.batch_costs is not None:
                    cost = self.batch_costs[index]
                    line += (
                        f" [{'root' if cost.use_root else 'direct'}:"
                        f" est {cost.chosen_cost:.3g} cells"
                        f" (root {cost.root_cost:.3g} vs direct {cost.direct_cost:.3g})]"
                    )
                lines.append(line)
        elif self.kind == "custom":
            lines.append(
                "stage 2 — execute : delegated to the strategy's own measure() "
                "(no batched kernel contract)"
            )
        else:
            lines.append(
                "stage 2 — execute : "
                f"one {self.kind} kernel pass, one vectorized {self.mechanism} "
                f"draw over {self.measured_cells} cells"
            )
        lines.append(
            "stage 3 — finalize: reconstruct per query"
            + (
                " (inherently consistent)"
                if self.inherently_consistent
                else " + consistency projection (unless disabled)"
            )
        )
        lines.append("")
        lines.append("per-group expected variance (weight x row variance):")
        table = self.table
        variances = self.group_variance_array()
        shown = min(len(table), max_groups)
        for label, size, eta, variance in zip(
            table.labels[:shown],
            table.sizes[:shown].tolist(),
            table.budgets[:shown].tolist(),
            variances[:shown].tolist(),
        ):
            eta_text = f"{eta:.4g}" if eta > 0.0 else "unmeasured"
            lines.append(
                f"  {label:<24} cells = {size:<8} eta = {eta_text:<12} "
                f"variance = {variance:.4g}"
            )
        if len(table) > shown:
            rest = float(np.cumsum(variances[shown:])[-1])
            lines.append(
                f"  ... {len(table) - shown} more groups (variance {rest:.4g})"
            )
        return "\n".join(lines)
