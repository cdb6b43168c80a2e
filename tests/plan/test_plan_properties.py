"""Property tests: the plan path is equivalent to the legacy per-query path.

Three invariants pin the plan → execute → finalize refactor:

* **noiseless exactness** — executing any workload through the Executor with
  noise disabled reproduces ``marginal_from_vector`` per query (batched
  subset sums derive coarse marginals from batch roots, which is exact for
  integer count vectors);
* **variance bookkeeping** — the plan's expected-variance accounting matches
  :class:`~repro.budget.allocation.NoiseAllocation` exactly;
* **seeded equivalence** — with the same generator state, the batched
  executor produces bitwise the same measurement as the per-group draws of
  the legacy measurement loops (the plan's single-stream seed policy;
  reference in ``measure_reference.py``), and
  ``MarginalReleaseEngine.release`` reproduces the legacy hand-wired
  pipeline over that reference measurement bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import MarginalReleaseEngine
from repro.domain import Schema
from repro.domain.contingency import marginal_from_vector
from repro.mechanisms import PrivacyBudget
from repro.plan import Executor, Planner
from repro.queries import MarginalQuery, MarginalWorkload
from repro.recovery.consistency import make_consistent
from repro.strategies import make_strategy
from repro.strategies.base import Measurement

from measure_reference import reference_measure

SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

D = 5
workload_masks = st.lists(st.integers(1, 31), min_size=1, max_size=6, unique=True)
count_vectors = st.lists(st.integers(0, 40), min_size=32, max_size=32)
epsilons = st.floats(min_value=0.05, max_value=4.0)
strategy_names = st.sampled_from(["I", "Q", "F", "C"])
seeds = st.integers(0, 2**32 - 1)


def make_workload(masks):
    schema = Schema.binary(["a", "b", "c", "d", "e"])
    return MarginalWorkload(
        schema, [MarginalQuery(mask, D) for mask in masks], name="random"
    )


class TestNoiselessExactness:
    @SETTINGS
    @given(workload_masks, count_vectors, strategy_names)
    def test_executor_reproduces_marginal_from_vector(self, masks, counts, name):
        workload = make_workload(masks)
        strategy = make_strategy(name, workload)
        planner = Planner(workload, strategy)
        plan = planner.plan(PrivacyBudget.pure(1.0))
        x = np.array(counts, dtype=np.float64)
        measurement = Executor(strategy).measure(plan, x, noiseless=True)
        estimates = strategy.estimate(measurement)
        for query, estimate in zip(workload.queries, estimates):
            expected = marginal_from_vector(x, query.mask, D)
            if name == "F":
                # Fourier reconstruction is exact up to transform round-off.
                assert np.allclose(estimate, expected, atol=1e-8)
            else:
                # Batched subset sums of integer counts are exact.
                assert np.array_equal(estimate, expected)


class TestVarianceBookkeeping:
    @SETTINGS
    @given(workload_masks, epsilons, strategy_names)
    def test_plan_matches_noise_allocation(self, masks, epsilon, name):
        workload = make_workload(masks)
        strategy = make_strategy(name, workload)
        planner = Planner(workload, strategy)
        budget = PrivacyBudget.pure(epsilon)
        plan = planner.plan(budget)
        allocation = planner.allocation(budget)
        assert plan.expected_total_variance() == allocation.total_weighted_variance()
        assert [g.budget for g in plan.groups] == list(allocation.group_budgets)
        assert sum(plan.group_variances().values()) == pytest.approx(
            allocation.total_weighted_variance()
        )

    @SETTINGS
    @given(workload_masks, epsilons, strategy_names)
    def test_approximate_budgets_too(self, masks, epsilon, name):
        workload = make_workload(masks)
        planner = Planner(workload, make_strategy(name, workload))
        budget = PrivacyBudget.approximate(epsilon, 1e-6)
        plan = planner.plan(budget)
        assert plan.expected_total_variance() == pytest.approx(
            planner.allocation(budget).total_weighted_variance()
        )


class TestSeededEquivalence:
    @SETTINGS
    @given(workload_masks, count_vectors, epsilons, strategy_names, seeds)
    def test_executor_matches_legacy_measure(self, masks, counts, epsilon, name, seed):
        workload = make_workload(masks)
        strategy = make_strategy(name, workload)
        planner = Planner(workload, strategy)
        plan = planner.plan(PrivacyBudget.pure(epsilon))
        x = np.array(counts, dtype=np.float64)
        legacy = reference_measure(strategy, x, plan.allocation, np.random.default_rng(seed))
        batched = Executor(strategy).measure(plan, x, np.random.default_rng(seed))
        assert batched.flat.tobytes() == legacy.tobytes()

    @SETTINGS
    @given(workload_masks, count_vectors, epsilons, strategy_names, seeds)
    def test_release_matches_legacy_pipeline(self, masks, counts, epsilon, name, seed):
        workload = make_workload(masks)
        engine = MarginalReleaseEngine(workload, name)
        x = np.array(counts, dtype=np.float64)
        result = engine.release(x, epsilon, rng=seed)

        strategy = make_strategy(name, workload)
        allocation = engine.allocation(epsilon)
        legacy = reference_measure(strategy, x, allocation, np.random.default_rng(seed))
        estimates = strategy.estimate(Measurement(name, allocation, flat=legacy))
        if not strategy.inherently_consistent:
            estimates = make_consistent(workload, estimates).marginals
        for released, legacy in zip(result.marginals, estimates):
            assert np.array_equal(released, legacy)
