"""Tests for marginal-set strategies (including S = Q)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.budget.allocation import optimal_allocation, uniform_allocation
from repro.budget.grouping import greedy_grouping, group_specs_from_matrices
from repro.exceptions import WorkloadError
from repro.mechanisms import PrivacyBudget
from repro.domain import Schema
from repro.plan import Executor, Planner
from repro.queries import MarginalQuery, MarginalWorkload, all_k_way, star_workload
from repro.queries.matrix import strategy_matrix_from_masks, workload_matrix
from repro.strategies import MarginalSetStrategy, query_strategy
from repro.strategies.marginal import submarginal


class TestSubmarginal:
    def test_basic_aggregation(self, random_counts_5):
        from repro.domain.contingency import marginal_from_vector

        super_mask, sub_mask = 0b01110, 0b00110
        super_marginal = marginal_from_vector(random_counts_5, super_mask, 5)
        direct = marginal_from_vector(random_counts_5, sub_mask, 5)
        assert np.allclose(submarginal(super_marginal, super_mask, sub_mask), direct)

    def test_not_dominated_rejected(self):
        with pytest.raises(WorkloadError):
            submarginal(np.zeros(4), 0b011, 0b100)

    def test_sub_equal_super_is_identity(self, random_counts_5):
        from repro.domain.contingency import marginal_from_vector

        marginal = marginal_from_vector(random_counts_5, 0b101, 5)
        assert np.allclose(submarginal(marginal, 0b101, 0b101), marginal)

    def test_sub_zero_is_total(self, random_counts_5):
        from repro.domain.contingency import marginal_from_vector

        marginal = marginal_from_vector(random_counts_5, 0b11, 5)
        assert submarginal(marginal, 0b11, 0)[0] == pytest.approx(random_counts_5.sum())


class TestConstruction:
    def test_query_strategy_measures_every_query(self, workload_2way_5):
        strategy = query_strategy(workload_2way_5)
        assert set(strategy.strategy_masks) == set(workload_2way_5.masks)
        assert all(strategy.assignment[m] == m for m in workload_2way_5.masks)

    def test_uncovered_query_rejected(self, binary_schema_5):
        workload = all_k_way(binary_schema_5, 2)
        with pytest.raises(WorkloadError):
            MarginalSetStrategy(workload, [workload.masks[0]])

    def test_default_assignment_prefers_smallest_dominating(self, binary_schema_5):
        workload = all_k_way(binary_schema_5, 1)
        masks = list(workload.masks) + [0b00011]
        strategy = MarginalSetStrategy(workload, masks)
        # Each 1-way query is dominated by itself (order 1) and possibly by the
        # 2-way strategy marginal; the self-assignment must win.
        for query in workload.queries:
            assert strategy.assignment[query.mask] == query.mask

    def test_explicit_assignment_validated(self, binary_schema_5):
        workload = all_k_way(binary_schema_5, 1)
        union = 0b00011
        with pytest.raises(WorkloadError):
            MarginalSetStrategy(
                workload, [union], assignment={workload.masks[4]: union}
            )  # query 'e' not dominated by the union of a and b

    def test_explicit_assignment_errors_keep_their_messages(self, binary_schema_5):
        workload = all_k_way(binary_schema_5, 1)
        with pytest.raises(
            WorkloadError, match=r"^query 0x1 assigned to 0x5, which is not a strategy marginal$"
        ):
            MarginalSetStrategy(workload, [0b00011, 0b11100], assignment={0b1: 0b101})
        with pytest.raises(
            WorkloadError,
            match=r"^query 0x4 is not dominated by its assigned strategy marginal 0x3$",
        ):
            MarginalSetStrategy(workload, [0b00011, 0b11100], assignment={0b100: 0b11})

    def test_masks_past_int64_can_be_planned(self):
        schema = Schema.binary([f"a{i}" for i in range(70)])
        workload = all_k_way(schema, 1)
        strategy = query_strategy(workload)
        specs = strategy.group_specs()
        assert [spec.size for spec in specs] == [2] * 70
        assert all(spec.weight == 2.0 for spec in specs)
        plan = Planner(workload, strategy).plan(PrivacyBudget.pure(1.0))
        assert len(plan.groups) == 70

    def test_duplicate_strategy_masks_collapse(self, workload_2way_5):
        masks = list(workload_2way_5.masks) * 2
        strategy = MarginalSetStrategy(workload_2way_5, masks)
        assert len(strategy.strategy_masks) == len(workload_2way_5)

    def test_mask_outside_domain_rejected(self, workload_2way_5):
        with pytest.raises(WorkloadError):
            MarginalSetStrategy(workload_2way_5, [1 << 10])


class TestGroupSpecs:
    def test_one_group_per_strategy_marginal(self, workload_2way_5):
        strategy = query_strategy(workload_2way_5)
        specs = strategy.group_specs()
        assert len(specs) == len(workload_2way_5)
        assert all(spec.constant == 1.0 for spec in specs)
        assert all(spec.weight == pytest.approx(4.0) for spec in specs)

    def test_weights_match_dense_computation(self, binary_schema_5):
        """Analytic group weights equal the dense b_i computation of Sec. 3.1
        for the S = Q strategy on a mixed-order workload."""
        workload = star_workload(binary_schema_5, 1)
        strategy = query_strategy(workload)
        specs = strategy.group_specs()

        dense_s = strategy_matrix_from_masks(list(strategy.strategy_masks), 5)
        dense_groups = greedy_grouping(dense_s)
        dense_specs = group_specs_from_matrices(dense_s, np.eye(dense_s.shape[0]), dense_groups)
        assert sorted(s.weight for s in specs) == pytest.approx(
            sorted(s.weight for s in dense_specs)
        )
        assert sorted(s.size for s in specs) == sorted(s.size for s in dense_specs)

    def test_sensitivity_counts_strategy_marginals(self, workload_2way_5):
        strategy = query_strategy(workload_2way_5)
        assert strategy.sensitivity(pure=True) == len(workload_2way_5)

    def test_covering_strategy_weight_accumulates_members(self, binary_schema_5):
        workload = all_k_way(binary_schema_5, 1)
        full = binary_schema_5.full_mask
        strategy = MarginalSetStrategy(workload, [full])
        spec = strategy.group_specs()[0]
        # One strategy marginal with 32 cells answering 5 queries.
        assert spec.size == 32
        assert spec.weight == pytest.approx(32 * 5)

    def test_weights_sum_queries_in_workload_order(self, binary_schema_5):
        """The group weights are the float sums of the assigned queries'
        weights, added in workload order: bit for bit a per-query loop."""
        workload = all_k_way(binary_schema_5, 2)
        strategy = MarginalSetStrategy(workload, [0b00111, 0b11100, 0b11011])
        weights = np.random.default_rng(3).random(len(workload)) * 10.0
        assigned = {mask: 0.0 for mask in strategy.strategy_masks}
        for query, weight in zip(workload.queries, weights):
            assigned[strategy.assignment[query.mask]] += float(weight)
        specs = strategy.group_specs(weights)
        for spec, mask in zip(specs, strategy.strategy_masks):
            cells = 1 << bin(mask).count("1")
            assert spec.size == cells
            assert spec.weight == cells * assigned[mask]

    def test_query_weight_vector(self, workload_2way_5):
        strategy = query_strategy(workload_2way_5)
        a = np.zeros(len(workload_2way_5))
        a[3] = 5.0
        specs = strategy.group_specs(a)
        weights = sorted(spec.weight for spec in specs)
        assert weights[-1] == pytest.approx(20.0)
        assert all(w == 0.0 for w in weights[:-1])


class TestMeasureAndEstimate:
    def test_estimates_close_to_truth_at_high_epsilon(self, workload_2way_5, random_counts_5):
        strategy = query_strategy(workload_2way_5)
        allocation = optimal_allocation(strategy.group_specs(), PrivacyBudget.pure(5000.0))
        measurement = strategy.measure(random_counts_5, allocation, rng=0)
        estimates = strategy.estimate(measurement)
        for estimate, truth in zip(estimates, workload_2way_5.true_answers(random_counts_5)):
            assert np.allclose(estimate, truth, atol=0.05)

    def test_estimate_uses_assigned_super_marginal(self, binary_schema_5, random_counts_5):
        workload = all_k_way(binary_schema_5, 1)
        full = binary_schema_5.full_mask
        strategy = MarginalSetStrategy(workload, [full])
        allocation = optimal_allocation(strategy.group_specs(), PrivacyBudget.pure(10000.0))
        measurement = strategy.measure(random_counts_5, allocation, rng=1)
        estimates = strategy.estimate(measurement)
        for estimate, truth in zip(estimates, workload.true_answers(random_counts_5)):
            assert np.allclose(estimate, truth, atol=0.5)

    def test_unused_strategy_marginal_not_measured(self, binary_schema_5, random_counts_5):
        workload = all_k_way(binary_schema_5, 1)
        masks = list(workload.masks) + [0b00011]  # extra marginal nobody is assigned to
        strategy = MarginalSetStrategy(workload, masks)
        allocation = optimal_allocation(strategy.group_specs(), PrivacyBudget.pure(1.0))
        measurement = strategy.measure(random_counts_5, allocation, rng=0)
        unused = measurement.group_values("marginal-0x3")
        assert np.all(np.isnan(unused))
        # The used marginals are still fine.
        estimates = strategy.estimate(measurement)
        assert all(np.all(np.isfinite(e)) for e in estimates)

    @pytest.mark.parametrize("executor", [False, True])
    def test_q_estimates_do_not_alias_the_measurement(
        self, workload_2way_5, random_counts_5, executor
    ):
        strategy = query_strategy(workload_2way_5)
        if executor:
            plan = Planner(workload_2way_5, strategy).plan(PrivacyBudget.pure(1.0))
            measurement = Executor(strategy).measure(plan, random_counts_5, rng=4)
        else:
            allocation = optimal_allocation(strategy.group_specs(), PrivacyBudget.pure(1.0))
            measurement = strategy.measure(random_counts_5, allocation, rng=4)
        labels = [f"marginal-{mask:#x}" for mask in workload_2way_5.masks]
        measured = [measurement.group_values(label).copy() for label in labels]
        estimates = strategy.estimate(measurement)
        for estimate, values in zip(estimates, measured):
            assert np.array_equal(estimate, values)
            estimate[:] = -1.0
        for label, values in zip(labels, measured):
            assert np.array_equal(measurement.group_values(label), values)
            measurement.group_values(label)[:] = 7.0
        for estimate in estimates:
            assert np.all(estimate == -1.0)

    def test_gaussian_measurement_runs(self, workload_2way_5, random_counts_5):
        strategy = query_strategy(workload_2way_5)
        allocation = optimal_allocation(
            strategy.group_specs(), PrivacyBudget.approximate(1.0, 1e-6)
        )
        measurement = strategy.measure(random_counts_5, allocation, rng=0)
        assert len(strategy.estimate(measurement)) == len(workload_2way_5)

    def test_measurement_reproducible(self, workload_2way_5, random_counts_5):
        strategy = query_strategy(workload_2way_5)
        allocation = optimal_allocation(strategy.group_specs(), PrivacyBudget.pure(0.5))
        first = strategy.estimate(strategy.measure(random_counts_5, allocation, rng=11))
        second = strategy.estimate(strategy.measure(random_counts_5, allocation, rng=11))
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_mixed_order_workload_q_plus_beats_q(self, binary_schema_5):
        """On Q1* the optimal budgeting strictly beats uniform for S = Q
        (this is the paper's headline improvement for the Q strategy)."""
        workload = star_workload(binary_schema_5, 1)
        strategy = query_strategy(workload)
        budget = PrivacyBudget.pure(1.0)
        uniform = uniform_allocation(strategy.group_specs(), budget)
        optimal = optimal_allocation(strategy.group_specs(), budget)
        assert optimal.total_weighted_variance() < uniform.total_weighted_variance()
