"""Tests for the Fourier strategy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.budget.allocation import optimal_allocation, uniform_allocation
from repro.core.bounds import fourier_total_variance_all_k_way
from repro.exceptions import WorkloadError
from repro.fourier import fwht
from repro.mechanisms import PrivacyBudget
from repro.queries import all_k_way, star_workload
from repro.strategies import FourierStrategy
from repro.strategies.base import Measurement
from repro.utils.bits import dominated_by, hamming_weight
from tests.conftest import marginals_are_consistent


@pytest.fixture
def strategy(workload_2way_5):
    return FourierStrategy(workload_2way_5)


class TestGroupSpecs:
    def test_one_group_per_coefficient(self, strategy, workload_2way_5):
        specs = strategy.group_specs()
        assert len(specs) == len(workload_2way_5.fourier_masks())
        assert all(spec.size == 1 for spec in specs)

    def test_constant_is_2_to_minus_d_over_2(self, strategy, workload_2way_5):
        d = workload_2way_5.dimension
        assert all(
            spec.constant == pytest.approx(2.0 ** (-d / 2.0))
            for spec in strategy.group_specs()
        )

    def test_weights_match_lemma_42(self, binary_schema_5):
        """For all k-way marginals the weight of coefficient beta is
        2**(d-k) * C(d - ||beta||, k - ||beta||) (proof of Lemma 4.2)."""
        d, k = 5, 2
        workload = all_k_way(binary_schema_5, k)
        strategy = FourierStrategy(workload)
        for spec, beta in zip(strategy.group_specs(), strategy.coefficient_masks):
            w = hamming_weight(beta)
            expected = (2.0 ** (d - k)) * math.comb(d - w, k - w)
            assert spec.weight == pytest.approx(expected)

    def test_sensitivity_matches_coefficient_count(self, strategy, workload_2way_5):
        d = workload_2way_5.dimension
        expected = len(workload_2way_5.fourier_masks()) * 2.0 ** (-d / 2.0)
        assert strategy.sensitivity(pure=True) == pytest.approx(expected)

    def test_total_variance_matches_closed_form(self, binary_schema_5):
        """The allocation applied to the strategy's groups reproduces the
        closed forms used in the Lemma 4.2 analysis (core.bounds)."""
        d, k, eps = 5, 2, 0.8
        workload = all_k_way(binary_schema_5, k)
        strategy = FourierStrategy(workload)
        budget = PrivacyBudget.pure(eps)
        optimal = optimal_allocation(strategy.group_specs(), budget)
        uniform = uniform_allocation(strategy.group_specs(), budget)
        assert optimal.total_weighted_variance() == pytest.approx(
            fourier_total_variance_all_k_way(d, k, eps, non_uniform=True)
        )
        assert uniform.total_weighted_variance() == pytest.approx(
            fourier_total_variance_all_k_way(d, k, eps, non_uniform=False)
        )

    def test_nonuniform_beats_uniform(self, strategy):
        budget = PrivacyBudget.pure(1.0)
        optimal = optimal_allocation(strategy.group_specs(), budget)
        uniform = uniform_allocation(strategy.group_specs(), budget)
        assert optimal.total_weighted_variance() < uniform.total_weighted_variance()


class TestMeasureAndEstimate:
    def test_estimate_exact_when_noise_free(self, strategy, workload_2way_5, random_counts_5):
        """Feeding the exact coefficients through the recovery reproduces the
        exact marginals (Theorem 4.1(2))."""
        full = fwht(random_counts_5)
        exact = np.array([full[beta] for beta in strategy.coefficient_masks])
        allocation = optimal_allocation(strategy.group_specs(), PrivacyBudget.pure(1.0))
        measurement = Measurement(strategy_name="F", allocation=allocation, flat=exact)
        estimates = strategy.estimate(measurement)
        for estimate, truth in zip(estimates, workload_2way_5.true_answers(random_counts_5)):
            assert np.allclose(estimate, truth)

    def test_estimates_are_consistent(self, strategy, workload_2way_5, random_counts_5):
        allocation = optimal_allocation(strategy.group_specs(), PrivacyBudget.pure(0.5))
        measurement = strategy.measure(random_counts_5, allocation, rng=0)
        estimates = strategy.estimate(measurement)
        assert marginals_are_consistent(workload_2way_5, estimates)
        assert strategy.inherently_consistent

    def test_estimate_from_values_when_metadata_missing(self, strategy, workload_2way_5, random_counts_5):
        allocation = optimal_allocation(strategy.group_specs(), PrivacyBudget.pure(1.0))
        measurement = strategy.measure(random_counts_5, allocation, rng=0)
        # Rebuilt from the per-group values, concatenated in group order.
        stripped = Measurement(
            strategy_name="F", allocation=allocation, values=measurement.values
        )
        direct = strategy.estimate(measurement)
        rebuilt = strategy.estimate(stripped)
        for a, b in zip(direct, rebuilt):
            assert np.allclose(a, b)

    def test_noisy_coefficients_accessor(self, strategy, random_counts_5):
        allocation = optimal_allocation(strategy.group_specs(), PrivacyBudget.pure(1.0))
        measurement = strategy.measure(random_counts_5, allocation, rng=0)
        coefficients = strategy.noisy_coefficients(measurement)
        assert set(coefficients) == set(strategy.coefficient_masks)

    def test_accuracy_improves_with_epsilon(self, strategy, workload_2way_5, random_counts_5):
        truth = workload_2way_5.true_answers(random_counts_5)

        def total_error(epsilon, seed):
            allocation = optimal_allocation(
                strategy.group_specs(), PrivacyBudget.pure(epsilon)
            )
            measurement = strategy.measure(random_counts_5, allocation, rng=seed)
            estimates = strategy.estimate(measurement)
            return sum(float(np.abs(e - t).sum()) for e, t in zip(estimates, truth))

        low = np.mean([total_error(0.05, s) for s in range(5)])
        high = np.mean([total_error(5.0, s) for s in range(5)])
        assert high < low

    def test_empirical_variance_matches_allocation(self, binary_schema_5):
        """The measured total squared error tracks the analytic total variance."""
        workload = all_k_way(binary_schema_5, 1)
        strategy = FourierStrategy(workload)
        budget = PrivacyBudget.pure(1.0)
        allocation = optimal_allocation(strategy.group_specs(), budget)
        x = np.zeros(workload.domain_size)
        truth = workload.true_answers(x)
        rng = np.random.default_rng(0)
        squared = []
        for _ in range(300):
            measurement = strategy.measure(x, allocation, rng=rng)
            estimates = strategy.estimate(measurement)
            squared.append(
                sum(float(((e - t) ** 2).sum()) for e, t in zip(estimates, truth))
            )
        assert np.mean(squared) == pytest.approx(allocation.total_weighted_variance(), rel=0.15)


class TestValidation:
    def test_mixed_order_workload_supported(self, binary_schema_5, random_counts_5):
        workload = star_workload(binary_schema_5, 1)
        strategy = FourierStrategy(workload)
        allocation = optimal_allocation(strategy.group_specs(), PrivacyBudget.pure(1.0))
        estimates = strategy.estimate(strategy.measure(random_counts_5, allocation, rng=0))
        assert len(estimates) == len(workload)

    def test_coefficient_masks_are_downward_closed(self, strategy):
        masks = set(strategy.coefficient_masks)
        for beta in masks:
            for query_mask in strategy.workload.masks:
                if dominated_by(beta, query_mask):
                    break
            else:
                pytest.fail(f"coefficient {beta:#x} not dominated by any query")
