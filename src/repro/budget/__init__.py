"""Noise-budget allocation (Step 2 of the paper's framework).

Given a decomposition ``Q = R S`` and a total privacy budget, this subpackage
computes per-row (equivalently per-group) noise budgets ``epsilon_i`` that
minimise the weighted output variance — either through the closed form of
Lemma 3.2 / Corollary 3.3 when the strategy satisfies the grouping property
of Definition 3.1, or through a general convex solve as a reference.
"""

from repro.budget.grouping import (
    GroupSpec,
    GroupTable,
    greedy_grouping,
    group_specs_from_matrices,
    satisfies_grouping_property,
)
from repro.budget.allocation import (
    NoiseAllocation,
    optimal_allocation,
    uniform_allocation,
)
from repro.budget.convex import solve_budget_problem

__all__ = [
    "GroupSpec",
    "GroupTable",
    "greedy_grouping",
    "group_specs_from_matrices",
    "satisfies_grouping_property",
    "NoiseAllocation",
    "optimal_allocation",
    "uniform_allocation",
    "solve_budget_problem",
]
