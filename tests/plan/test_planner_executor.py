"""Unit tests for the Planner / Executor split."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import MarginalReleaseEngine
from repro.exceptions import PlanError, WorkloadError
from repro.mechanisms import (
    PrivacyBudget,
    gaussian_sigma_for_budget,
    laplace_scale_for_budget,
)
from repro.plan import Executor, Planner
from repro.queries import all_k_way
from repro.queries.matrix import strategy_matrix_from_masks
from repro.strategies import ExplicitMatrixStrategy, make_strategy, query_strategy


@pytest.fixture
def planner_q(workload_2way_5):
    return Planner(workload_2way_5, query_strategy(workload_2way_5))


class TestPlanner:
    def test_rejects_foreign_strategy(self, workload_2way_5, binary_schema_5):
        other = all_k_way(binary_schema_5, 1)
        with pytest.raises(WorkloadError):
            Planner(workload_2way_5, query_strategy(other))

    def test_groups_align_with_allocation(self, planner_q):
        plan = planner_q.plan(PrivacyBudget.pure(1.0))
        assert [g.label for g in plan.groups] == [
            g.label for g in plan.allocation.groups
        ]
        assert [g.budget for g in plan.groups] == list(plan.allocation.group_budgets)

    def test_groups_carry_masks_and_scales(self, planner_q):
        plan = planner_q.plan(PrivacyBudget.pure(1.0))
        assert plan.kind == "marginal"
        for group in plan.groups:
            assert group.mask is not None
            assert group.measured
            assert group.noise_scale == pytest.approx(1.0 / group.budget)

    def test_gaussian_scales(self, planner_q):
        plan = planner_q.plan(PrivacyBudget.approximate(1.0, 1e-6))
        sigma = np.sqrt(2.0 * np.log(2.0 / 1e-6))
        for group in plan.groups:
            assert group.noise_scale == pytest.approx(sigma / group.budget)

    @pytest.mark.parametrize(
        "budget, zero_weight",
        [
            (PrivacyBudget.pure(0.8), False),
            (PrivacyBudget.approximate(0.8, 1e-5), False),
            (PrivacyBudget.pure(0.8), True),
            (PrivacyBudget.approximate(0.8, 1e-5), True),
        ],
    )
    def test_scales_match_the_scalar_helpers(self, workload_2way_5, budget, zero_weight):
        weights = np.linspace(0.5, 2.0, len(workload_2way_5))
        if zero_weight:
            weights[3] = 0.0
        strategy = query_strategy(workload_2way_5)
        plan = Planner(workload_2way_5, strategy, query_weights=weights).plan(budget)
        assert (0.0 in [group.budget for group in plan.groups]) is zero_weight
        for group in plan.groups:
            if group.budget == 0.0:
                assert group.noise_scale is None
            elif budget.is_pure:
                expected = laplace_scale_for_budget(group.budget)[0]
                assert np.float64(group.noise_scale).tobytes() == expected.tobytes()
            else:
                expected = gaussian_sigma_for_budget(group.budget, budget.delta)[0]
                assert np.float64(group.noise_scale).tobytes() == expected.tobytes()

    def test_expected_variance_matches_allocation(self, planner_q):
        budget = PrivacyBudget.pure(0.7)
        plan = planner_q.plan(budget)
        assert plan.expected_total_variance() == pytest.approx(
            planner_q.allocation(budget).total_weighted_variance()
        )
        assert sum(plan.group_variances().values()) == pytest.approx(
            plan.expected_total_variance()
        )

    def test_plan_is_data_independent(self, planner_q, random_counts_5):
        plan = planner_q.plan(PrivacyBudget.pure(1.0))
        executor = Executor(planner_q.strategy)
        first = executor.measure(plan, random_counts_5, np.random.default_rng(0))
        second = executor.measure(plan, random_counts_5, np.random.default_rng(0))
        for label in first.values:
            assert np.array_equal(first.values[label], second.values[label])

    def test_fourier_plan_has_no_batches(self, workload_2way_5):
        planner = Planner(workload_2way_5, make_strategy("F", workload_2way_5))
        plan = planner.plan(PrivacyBudget.pure(1.0))
        assert plan.kind == "fourier"
        assert plan.batches == ()
        assert plan.measured_cells <= plan.total_cells

    def test_matrix_plan_carries_row_budgets(self, workload_2way_5):
        matrix = strategy_matrix_from_masks(
            workload_2way_5.masks, workload_2way_5.dimension
        )
        strategy = ExplicitMatrixStrategy(workload_2way_5, matrix, name="dense")
        plan = Planner(workload_2way_5, strategy).plan(PrivacyBudget.pure(1.0))
        assert plan.kind == "matrix"
        assert plan.row_budgets is not None
        assert plan.row_budgets.shape == (matrix.shape[0],)

    def test_describe_mentions_stages_and_groups(self, planner_q):
        text = planner_q.plan(PrivacyBudget.pure(1.0)).describe()
        assert "stage 1 — plan" in text
        assert "stage 2 — execute" in text
        assert "stage 3 — finalize" in text
        assert "batch" in text
        assert "marginal-0x" in text


class TestExecutor:
    def test_rejects_mismatched_kernel(self, workload_2way_5, random_counts_5):
        plan = Planner(workload_2way_5, query_strategy(workload_2way_5)).plan(
            PrivacyBudget.pure(1.0)
        )
        fourier_executor = Executor(make_strategy("F", workload_2way_5))
        with pytest.raises(PlanError):
            fourier_executor.measure(plan, random_counts_5)

    def test_noiseless_leaves_stream_untouched(self, planner_q, random_counts_5):
        executor = Executor(planner_q.strategy)
        plan = planner_q.plan(PrivacyBudget.pure(1.0))
        generator = np.random.default_rng(3)
        executor.measure(plan, random_counts_5, generator, noiseless=True)
        untouched = np.random.default_rng(3)
        assert generator.integers(0, 2**32) == untouched.integers(0, 2**32)

    def test_noiseless_equals_exact_marginals(self, planner_q, random_counts_5):
        executor = Executor(planner_q.strategy)
        plan = planner_q.plan(PrivacyBudget.pure(1.0))
        measurement = executor.measure(
            plan, random_counts_5, np.random.default_rng(0), noiseless=True
        )
        estimates = planner_q.strategy.estimate(measurement)
        for query, estimate in zip(plan.workload.queries, estimates):
            assert np.array_equal(estimate, query.evaluate(random_counts_5))


class _LegacyNoisyCounts:
    """A pre-refactor-style Strategy subclass: ABC methods only, no planner
    contract (query_masks / measurement_kind untouched)."""


def _make_legacy_strategy(workload):
    from typing import List, Optional, Sequence

    from repro.budget.grouping import GroupSpec
    from repro.domain.contingency import marginal_from_vector
    from repro.mechanisms.noise import laplace_noise, laplace_scale_for_budget
    from repro.strategies.base import Measurement, Strategy
    from repro.utils.rng import ensure_rng

    class LegacyStrategy(Strategy):
        inherently_consistent = True

        def group_specs(
            self, a: Optional[Sequence[float]] = None
        ) -> List[GroupSpec]:
            weights = self.resolve_query_weights(a)
            return [
                GroupSpec(
                    label="legacy",
                    size=self._workload.domain_size,
                    constant=1.0,
                    weight=float(self._workload.domain_size * weights.sum()),
                )
            ]

        def measure(self, x, allocation, rng=None) -> Measurement:
            vector = self.check_vector(x)
            self.check_allocation(allocation)
            generator = ensure_rng(rng)
            eta = allocation.budget_for("legacy")
            noise = laplace_noise(
                laplace_scale_for_budget(eta), vector.shape[0], generator
            )
            return Measurement(
                strategy_name=self._name,
                allocation=allocation,
                values={"legacy": vector + noise},
            )

        def estimate(self, measurement):
            noisy = measurement.group_values("legacy")
            return [
                marginal_from_vector(noisy, query.mask, self.dimension)
                for query in self._workload.queries
            ]

    return LegacyStrategy(workload, name="legacy")


class TestCustomKernelFallback:
    """Strategy subclasses without the planner contract keep working."""

    def test_planner_falls_back_to_custom_kind(self, workload_2way_5):
        strategy = _make_legacy_strategy(workload_2way_5)
        plan = Planner(workload_2way_5, strategy).plan(PrivacyBudget.pure(1.0))
        assert plan.kind == "custom"
        assert plan.batches == ()
        assert "strategy's own measure()" in plan.describe()

    def test_executor_delegates_to_strategy_measure(
        self, workload_2way_5, random_counts_5
    ):
        strategy = _make_legacy_strategy(workload_2way_5)
        planner = Planner(workload_2way_5, strategy)
        plan = planner.plan(PrivacyBudget.pure(1.0))
        direct = strategy.measure(
            random_counts_5, plan.allocation, np.random.default_rng(5)
        )
        via_plan = Executor(strategy).measure(
            plan, random_counts_5, np.random.default_rng(5)
        )
        assert np.array_equal(direct.values["legacy"], via_plan.values["legacy"])

    def test_engine_accepts_legacy_strategy(self, workload_2way_5, random_counts_5):
        strategy = _make_legacy_strategy(workload_2way_5)
        engine = MarginalReleaseEngine(workload_2way_5, strategy)
        result = engine.release(random_counts_5, 1.0, rng=0)
        assert len(result.marginals) == len(workload_2way_5)
        assert result.strategy_name == "legacy"

    def test_noiseless_custom_rejected(self, workload_2way_5, random_counts_5):
        strategy = _make_legacy_strategy(workload_2way_5)
        planner = Planner(workload_2way_5, strategy)
        plan = planner.plan(PrivacyBudget.pure(1.0))
        with pytest.raises(PlanError):
            Executor(strategy).measure(plan, random_counts_5, noiseless=True)


class TestWeightedConsistency:
    def test_plan_threads_resolved_weights_into_projection(
        self, workload_2way_5, random_counts_5
    ):
        from repro.recovery.consistency import make_consistent
        from repro.strategies import make_strategy

        weights = np.linspace(0.5, 2.0, len(workload_2way_5))
        engine = MarginalReleaseEngine(workload_2way_5, "Q", query_weights=weights)
        result = engine.release(random_counts_5, 1.0, rng=9)

        strategy = make_strategy("Q", workload_2way_5)
        allocation = engine.allocation(1.0)
        measurement = strategy.measure(
            random_counts_5, allocation, np.random.default_rng(9)
        )
        estimates = make_consistent(
            workload_2way_5, strategy.estimate(measurement), query_weights=weights
        ).marginals
        for released, expected in zip(result.marginals, estimates):
            assert np.array_equal(released, expected)


class TestEngineFacade:
    def test_engine_exposes_planner_and_executor(self, workload_2way_5):
        engine = MarginalReleaseEngine(workload_2way_5, "Q")
        assert engine.planner.strategy is engine.strategy
        assert engine.executor.strategy is engine.strategy

    def test_build_plan_and_explain(self, workload_2way_5):
        engine = MarginalReleaseEngine(workload_2way_5, "C")
        plan = engine.build_plan(0.5)
        assert plan.strategy_name == "C"
        assert "expected variance" in engine.explain(0.5)

    def test_release_reports_plan_variance(self, workload_2way_5, random_counts_5):
        engine = MarginalReleaseEngine(workload_2way_5, "Q")
        result = engine.release(random_counts_5, 1.0, rng=0)
        assert result.expected_total_variance == pytest.approx(
            engine.build_plan(1.0).expected_total_variance()
        )
