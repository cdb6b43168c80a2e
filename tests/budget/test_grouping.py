"""Tests for the grouping property (Definition 3.1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.budget.grouping import (
    GroupSpec,
    GroupTable,
    greedy_grouping,
    group_constant,
    group_specs_from_matrices,
    row_recovery_weights,
    satisfies_grouping_property,
)
from repro.exceptions import BudgetError, GroupingError
from repro.queries import all_k_way
from repro.queries.matrix import (
    fourier_basis_matrix,
    marginal_operator_matrix,
    strategy_matrix_from_masks,
    workload_matrix,
)


class TestGroupSpec:
    def test_valid(self):
        spec = GroupSpec(label="g", size=4, constant=1.0, weight=8.0)
        assert spec.size == 4

    def test_invalid_size(self):
        with pytest.raises(GroupingError):
            GroupSpec(label="g", size=0, constant=1.0, weight=1.0)

    def test_invalid_constant(self):
        with pytest.raises(GroupingError):
            GroupSpec(label="g", size=1, constant=0.0, weight=1.0)

    def test_negative_weight(self):
        with pytest.raises(GroupingError):
            GroupSpec(label="g", size=1, constant=1.0, weight=-1.0)

    def test_nan_constant_and_weight_rejected(self):
        # NaN fails every comparison, so `constant <= 0` alone let it in.
        with pytest.raises(GroupingError, match="positive column constant, got nan"):
            GroupSpec("a", 2, math.nan, math.nan)
        with pytest.raises(GroupingError, match="non-finite"):
            GroupSpec("a", 2, 1.0, math.nan)

    @pytest.mark.parametrize("constant,weight", [(math.inf, 1.0), (1.0, math.inf)])
    def test_infinite_constant_or_weight_rejected(self, constant, weight):
        with pytest.raises(GroupingError, match="non-finite"):
            GroupSpec("a", 2, constant, weight)

    def test_messages_name_the_group(self):
        with pytest.raises(GroupingError, match="'g' must contain at least one row"):
            GroupSpec(label="g", size=0, constant=1.0, weight=1.0)
        with pytest.raises(GroupingError, match="'g' has a negative recovery weight -1.0"):
            GroupSpec(label="g", size=1, constant=1.0, weight=-1.0)


class TestGroupTable:
    def test_rejects_the_first_bad_row(self):
        with pytest.raises(GroupingError, match="group 'b' .*non-finite"):
            GroupTable(["a", "b", "c"], [1, 2, 4], [1.0, 1.0, 1.0], [1.0, math.inf, 2.0])

    def test_offsets_and_spec_views(self):
        table = GroupTable(["a", "b"], [2, 4], [1.0, 0.5], [3.0, 0.0])
        assert table.offsets.tolist() == [0, 2, 6]
        assert table.total_cells == 6
        assert table.specs() == (
            GroupSpec("a", 2, 1.0, 3.0),
            GroupSpec("b", 4, 0.5, 0.0),
        )
        assert table.spec_dicts() == [spec.to_dict() for spec in table.specs()]
        assert GroupTable.from_specs(table.specs()).labels == ("a", "b")

    def test_columns_are_read_only(self):
        table = GroupTable(["a"], [2], [1.0], [3.0])
        with pytest.raises(ValueError):
            table.weights[0] = 5.0

    def test_replace_validates_budgets(self):
        table = GroupTable(["a", "b"], [2, 4], [1.0, 0.5], [3.0, 0.0])
        with pytest.raises(BudgetError, match="got 1 budgets for 2 groups"):
            table.replace(budgets=[1.0])
        with pytest.raises(BudgetError, match="finite"):
            table.replace(budgets=[1.0, math.nan])
        assert table.replace(budgets=[0.5, 0.0]).budgets.tolist() == [0.5, 0.0]
        assert table.budgets is None


class TestGreedyGrouping:
    def test_identity_single_group(self):
        """The paper: S = I has grouping number 1."""
        groups = greedy_grouping(np.eye(16))
        assert len(groups) == 1
        assert sorted(groups[0]) == list(range(16))

    def test_single_marginal_single_group(self):
        matrix = marginal_operator_matrix(0b011, 4)
        assert len(greedy_grouping(matrix)) == 1

    def test_collection_of_marginals_one_group_each(self):
        """The paper: a collection of marginals groups by marginal."""
        masks = [0b0011, 0b1100, 0b0110]
        matrix = strategy_matrix_from_masks(masks, 4)
        groups = greedy_grouping(matrix)
        assert len(groups) == len(masks)

    def test_figure_1b_grouping_number_two(self, paper_example_workload):
        """The paper's example: the Figure 1(b) query matrix has grouping number 2."""
        matrix = workload_matrix(paper_example_workload)
        groups = greedy_grouping(matrix)
        assert len(groups) == 2
        assert satisfies_grouping_property(matrix, groups)

    def test_fourier_every_row_its_own_group(self):
        """The paper: the Fourier matrix is dense, so each row is a group."""
        matrix = fourier_basis_matrix(3)
        groups = greedy_grouping(matrix)
        assert len(groups) == 8
        assert all(len(g) == 1 for g in groups)

    def test_zero_row_rejected(self):
        matrix = np.vstack([np.eye(3), np.zeros((1, 3))])
        with pytest.raises(GroupingError):
            greedy_grouping(matrix)

    def test_mixed_magnitudes_not_grouped_together(self):
        matrix = np.array([[1.0, 0.0], [0.0, 2.0]])
        groups = greedy_grouping(matrix)
        assert len(groups) == 2

    def test_row_with_unequal_entries_is_singleton(self):
        matrix = np.array([[1.0, 2.0], [0.0, 1.0]])
        groups = greedy_grouping(matrix)
        assert [0] in groups and len(groups) == 2


class TestSatisfiesGroupingProperty:
    def test_valid_partition(self):
        matrix = strategy_matrix_from_masks([0b01, 0b10], 2)
        groups = [[0, 1], [2, 3]]
        assert satisfies_grouping_property(matrix, groups)

    def test_overlapping_supports_fail(self):
        matrix = np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0]])
        assert not satisfies_grouping_property(matrix, [[0, 1]])

    def test_incomplete_partition_fails(self):
        matrix = np.eye(3)
        assert not satisfies_grouping_property(matrix, [[0, 1]])

    def test_duplicated_rows_fail(self):
        matrix = np.eye(3)
        assert not satisfies_grouping_property(matrix, [[0, 1], [1, 2]])

    def test_partial_cover_allowed_when_not_strict(self):
        # A group that does not touch every column violates the strict
        # definition but is fine for feasibility.
        matrix = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        groups = [[0, 1], [2], [3]]
        assert not satisfies_grouping_property(matrix, groups)
        assert satisfies_grouping_property(matrix, groups, require_full_cover=False)


class TestGroupSummaries:
    def test_group_constant(self):
        matrix = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0]])
        assert group_constant(matrix, [0, 1]) == 0.5

    def test_group_constant_empty_support(self):
        with pytest.raises(GroupingError):
            group_constant(np.zeros((2, 3)), [0])

    def test_row_recovery_weights_uniform_a(self):
        recovery = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        weights = row_recovery_weights(recovery)
        assert np.allclose(weights, [1.0 + 0.25, 0.25 + 1.0])

    def test_row_recovery_weights_with_a(self):
        recovery = np.array([[1.0, 0.0], [0.0, 2.0]])
        weights = row_recovery_weights(recovery, a=np.array([3.0, 0.5]))
        assert np.allclose(weights, [3.0, 2.0])

    def test_row_recovery_weights_rejects_negative_a(self):
        with pytest.raises(GroupingError):
            row_recovery_weights(np.eye(2), a=np.array([-1.0, 1.0]))

    def test_group_specs_from_matrices(self, paper_example_workload):
        """S = Q for the worked example: groups (A) and (A,B) with weights 2 and 4."""
        q = workload_matrix(paper_example_workload)
        groups = greedy_grouping(q)
        specs = group_specs_from_matrices(q, np.eye(6), groups)
        by_size = sorted(specs, key=lambda s: s.size)
        assert by_size[0].size == 2 and by_size[0].weight == pytest.approx(2.0)
        assert by_size[1].size == 4 and by_size[1].weight == pytest.approx(4.0)
        assert all(spec.constant == 1.0 for spec in specs)

    def test_group_specs_shape_validation(self):
        with pytest.raises(GroupingError):
            group_specs_from_matrices(np.eye(3), np.eye(4), [[0, 1, 2]])
