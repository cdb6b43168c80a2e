"""Tests for the general convex budgeting solver and its agreement with the
closed-form group solution."""

from __future__ import annotations

import numpy as np
import pytest

from repro.budget.allocation import optimal_allocation, uniform_allocation
from repro.budget.convex import solve_budget_problem
from repro.budget.grouping import (
    greedy_grouping,
    group_specs_from_matrices,
    row_recovery_weights,
)
from repro.exceptions import BudgetError
from repro.mechanisms import PrivacyBudget
from repro.mechanisms.sensitivity import weighted_l1_column_bound
from repro.queries.matrix import workload_matrix


class TestSolverBasics:
    def test_single_row(self):
        strategy = np.ones((1, 4))
        solution = solve_budget_problem(strategy, np.array([3.0]), epsilon=2.0)
        assert solution.converged
        # With a single row the whole budget goes to it.
        assert solution.epsilons[0] == pytest.approx(2.0, rel=1e-4)
        assert solution.objective == pytest.approx(2.0 * 3.0 / 4.0, rel=1e-3)

    def test_constraints_respected(self):
        rng = np.random.default_rng(0)
        strategy = rng.integers(0, 2, size=(6, 10)).astype(float)
        strategy[strategy.sum(axis=1) == 0, 0] = 1.0
        weights = rng.uniform(0.5, 5.0, size=6)
        epsilon = 1.3
        solution = solve_budget_problem(strategy, weights, epsilon)
        assert weighted_l1_column_bound(strategy, solution.epsilons) <= epsilon * (1 + 1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(BudgetError):
            solve_budget_problem(np.eye(3), np.ones(2), 1.0)
        with pytest.raises(BudgetError):
            solve_budget_problem(np.eye(3), -np.ones(3), 1.0)
        with pytest.raises(BudgetError):
            solve_budget_problem(np.eye(3), np.ones(3), 0.0)
        with pytest.raises(BudgetError):
            solve_budget_problem(np.zeros((2, 2)), np.ones(2), 1.0)
        with pytest.raises(BudgetError):
            solve_budget_problem(np.eye(2), np.zeros(2), 1.0)


class TestAgreementWithClosedForm:
    def test_intro_example(self, paper_example_workload):
        """For S = Q of the worked example the convex solver reaches the same
        46.17/eps^2 optimum as the closed-form group allocation."""
        strategy = workload_matrix(paper_example_workload)
        recovery = np.eye(6)
        weights = row_recovery_weights(recovery)
        epsilon = 1.0
        solution = solve_budget_problem(strategy, weights, epsilon)
        groups = greedy_grouping(strategy)
        specs = group_specs_from_matrices(strategy, recovery, groups)
        closed = optimal_allocation(specs, PrivacyBudget.pure(epsilon))
        assert solution.objective == pytest.approx(
            closed.total_weighted_variance(), rel=1e-3
        )

    def test_identity_strategy(self):
        """For S = I the optimum is the uniform allocation."""
        strategy = np.eye(8)
        weights = np.full(8, 2.0)
        epsilon = 0.8
        solution = solve_budget_problem(strategy, weights, epsilon)
        groups = greedy_grouping(strategy)
        specs = group_specs_from_matrices(strategy, np.eye(8) * np.sqrt(2.0), groups)
        closed = uniform_allocation(specs, PrivacyBudget.pure(epsilon))
        assert solution.objective == pytest.approx(closed.total_weighted_variance(), rel=1e-3)

    def test_two_marginals_random_weights(self):
        """Random per-row weights over a two-marginal strategy: the convex
        optimum never beats the (group-restricted) closed form by more than
        numerical tolerance, and never does worse than uniform."""
        from repro.queries.matrix import strategy_matrix_from_masks

        strategy = strategy_matrix_from_masks([0b0011, 0b1100], 4)
        rng = np.random.default_rng(5)
        # Within-group-constant weights keep the recovery consistent with the
        # grouping (Definition 3.2), where the closed form is exactly optimal.
        weights = np.concatenate([np.full(4, 3.0), np.full(4, 1.5)])
        epsilon = 1.0
        solution = solve_budget_problem(strategy, weights, epsilon)
        groups = greedy_grouping(strategy)
        labels = [f"group-{i}" for i in range(len(groups))]
        specs = [
            group_specs_from_matrices(strategy, np.eye(8), groups, labels=labels)[i]
            for i in range(len(groups))
        ]
        # Patch the weights to the intended per-row weights.
        from repro.budget.grouping import GroupSpec

        specs = [
            GroupSpec(label=s.label, size=s.size, constant=s.constant, weight=float(weights[list(groups[i])].sum()))
            for i, s in enumerate(specs)
        ]
        closed = optimal_allocation(specs, PrivacyBudget.pure(epsilon))
        assert solution.objective == pytest.approx(closed.total_weighted_variance(), rel=1e-3)

    def test_solver_is_slower_but_equivalent_on_fourier(self, binary_schema_3):
        from repro.queries import all_k_way
        from repro.queries.matrix import fourier_basis_matrix
        from repro.strategies.fourier import FourierStrategy

        workload = all_k_way(binary_schema_3, 1)
        strategy_obj = FourierStrategy(workload)
        specs = strategy_obj.group_specs()
        epsilon = 1.0
        closed = optimal_allocation(specs, PrivacyBudget.pure(epsilon))

        # Dense formulation restricted to the measured coefficients.
        dense_f = fourier_basis_matrix(3)
        masks = list(strategy_obj.coefficient_masks)
        strategy_matrix = dense_f[masks, :]
        weights = np.array([spec.weight for spec in specs])
        solution = solve_budget_problem(strategy_matrix, weights, epsilon)
        assert solution.objective == pytest.approx(closed.total_weighted_variance(), rel=1e-2)

    def test_unconverged_point_is_scaled_back_to_feasibility(self):
        """At d = 8 (star workload, S = Q) SLSQP stops unconverged at a point
        whose largest column sum exceeds epsilon; the returned budgets are
        scaled back onto the constraint, so they never beat the closed form."""
        from repro.domain import Schema
        from repro.queries import star_workload
        from repro.queries.matrix import strategy_matrix_from_masks
        from repro.strategies import query_strategy

        schema = Schema.binary([f"a{i}" for i in range(8)])
        strategy = query_strategy(star_workload(schema, 1))
        dense = strategy_matrix_from_masks(list(strategy.strategy_masks), schema.total_bits)
        epsilon = 1.0
        solution = solve_budget_problem(dense, np.ones(dense.shape[0]), epsilon)
        closed = optimal_allocation(strategy.group_specs(), PrivacyBudget.pure(epsilon))
        assert weighted_l1_column_bound(dense, solution.epsilons) <= epsilon * (1 + 1e-9)
        assert solution.objective >= closed.total_weighted_variance() * (1 - 1e-6)
