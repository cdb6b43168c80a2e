"""The on-demand ``GroupSpec`` / ``PlanGroup`` views equal the objects the
per-group code built, field by field and bit for bit, and the executor's
flat measurement equals per-group noise draws.

A strategy's groups, its allocation and its plan are stored as one
columnar :class:`~repro.budget.grouping.GroupTable`.  The reference below is
the per-group construction the table replaced: Python loops that build one
``GroupSpec`` and one ``PlanGroup`` per group, sum weights query by query,
fold the variance and privacy totals group by group and draw each group's
noise in turn.  Every float must come out identical, because ``meta.json``,
checkpoint fingerprints and seeded releases depend on them.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.budget.allocation import allocation_for
from repro.budget.grouping import GroupSpec
from repro.domain import Schema
from repro.mechanisms import PrivacyBudget
from repro.mechanisms.noise import gaussian_sigma_for_budget, laplace_scale_for_budget
from repro.plan import Executor, Planner, PlanGroup
from repro.queries import MarginalQuery, MarginalWorkload
from repro.strategies import FourierStrategy, IdentityStrategy, MarginalSetStrategy
from repro.strategies import make_strategy

from measure_reference import reference_measure

D = 6

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

workload_masks = st.lists(st.integers(1, (1 << D) - 1), min_size=1, max_size=10, unique=True)
query_weight = st.one_of(
    st.just(0.0), st.floats(min_value=1e-3, max_value=50.0, allow_nan=False)
)
budgets = st.one_of(
    st.builds(PrivacyBudget.pure, st.floats(min_value=0.05, max_value=8.0)),
    st.builds(
        PrivacyBudget.approximate,
        st.floats(min_value=0.05, max_value=8.0),
        st.sampled_from([1e-3, 1e-6, 1e-9]),
    ),
)


def make_workload(masks):
    schema = Schema.binary([f"b{i}" for i in range(D)])
    return MarginalWorkload(schema, [MarginalQuery(mask, D) for mask in masks], name="w")


# --------------------------------------------------------------------------- #
# the per-group reference
# --------------------------------------------------------------------------- #
def reference_specs(strategy, weights):
    workload = strategy.workload
    if isinstance(strategy, MarginalSetStrategy):
        masks = list(strategy.strategy_masks)
        assigned = {mask: 0.0 for mask in masks}
        for query, weight in zip(workload.queries, weights.tolist()):
            assigned[strategy.assignment[query.mask]] += weight
        return [
            GroupSpec(
                label=f"marginal-{mask:#x}",
                size=1 << bin(mask).count("1"),
                constant=1.0,
                weight=(1 << bin(mask).count("1")) * assigned[mask],
            )
            for mask in masks
        ]
    if isinstance(strategy, FourierStrategy):
        weight_of = {beta: 0.0 for beta in strategy.coefficient_masks}
        for query, weight in zip(workload.queries, weights.tolist()):
            contribution = float(weight) * (2.0 ** (D - query.order))
            if contribution == 0.0:
                continue
            for beta in query.fourier_support():
                weight_of[beta] += contribution
        return [
            GroupSpec(f"fourier-{beta:#x}", 1, 2.0 ** (-D / 2.0), weight_of[beta])
            for beta in strategy.coefficient_masks
        ]
    assert isinstance(strategy, IdentityStrategy)
    size = workload.domain_size
    return [GroupSpec("base-counts", size, 1.0, float(size * weights.sum()))]


def reference_budgets(specs, budget, non_uniform):
    weights = np.array([g.weight for g in specs])
    constants = np.array([g.constant for g in specs])
    if not non_uniform:
        if budget.is_pure:
            common = budget.epsilon / float(constants.sum())
        else:
            common = budget.epsilon / float(np.sqrt((constants**2).sum()))
        return tuple(common for _ in specs)
    active = weights > 0
    if budget.is_pure:
        proportional = np.where(active, (weights / constants) ** (1.0 / 3.0), 0.0)
        etas = budget.epsilon * proportional / float(np.dot(constants, proportional))
    else:
        proportional_sq = np.where(active, np.sqrt(weights) / constants, 0.0)
        normaliser = float(np.dot(constants**2, proportional_sq))
        etas = np.sqrt(budget.epsilon**2 * proportional_sq / normaliser)
    return tuple(float(e) for e in etas)


def reference_row_variance(eta, budget):
    if eta <= 0:
        return math.inf
    if budget.is_pure:
        return 2.0 / eta**2
    return 2.0 * math.log(2.0 / budget.delta) / eta**2


def reference_total_variance(specs, etas, budget):
    total = 0.0
    for group, eta in zip(specs, etas):
        if group.weight == 0.0:
            continue
        variance = reference_row_variance(eta, budget)
        if math.isinf(variance):
            return math.inf
        total += group.weight * variance
    return total


def reference_spent(specs, etas, budget):
    if budget.is_pure:
        return sum(g.constant * eta for g, eta in zip(specs, etas))
    return math.sqrt(sum((g.constant * eta) ** 2 for g, eta in zip(specs, etas)))


def reference_plan_groups(specs, etas, masks, budget):
    etas_array = np.array(etas, dtype=np.float64)
    positive = etas_array > 0.0
    scales = np.zeros_like(etas_array)
    if budget.is_pure:
        scales[positive] = laplace_scale_for_budget(etas_array[positive])
    else:
        scales[positive] = gaussian_sigma_for_budget(etas_array[positive], budget.delta)
    return tuple(
        PlanGroup(
            label=spec.label,
            mask=mask,
            size=spec.size,
            constant=spec.constant,
            weight=spec.weight,
            budget=float(eta),
            noise_scale=scale if eta > 0.0 else None,
        )
        for spec, eta, scale, mask in zip(specs, etas, scales.tolist(), masks)
    )


def bits(value):
    return np.float64(value).tobytes() if value is not None else None


def assert_same_fields(left, right, fields):
    assert len(left) == len(right)
    for ours, theirs in zip(left, right):
        for name in fields:
            mine, reference = getattr(ours, name), getattr(theirs, name)
            if isinstance(reference, float):
                assert bits(mine) == bits(reference), (name, mine, reference)
            else:
                assert mine == reference, (name, mine, reference)


# --------------------------------------------------------------------------- #
class TestViewsMatchThePerGroupObjects:
    @SETTINGS
    @given(
        workload_masks,
        st.sampled_from(["Q", "C", "F", "I"]),
        st.data(),
        budgets,
        st.booleans(),
    )
    def test_specs_allocation_and_plan_groups(self, masks, name, data, budget, non_uniform):
        workload = make_workload(masks)
        strategy = make_strategy(name, workload)
        weights = np.array(
            data.draw(st.lists(query_weight, min_size=len(masks), max_size=len(masks)))
        )
        assume(weights.sum() > 0)

        specs = reference_specs(strategy, weights)
        assert_same_fields(
            strategy.group_specs(weights), specs, ("label", "size", "constant", "weight")
        )
        etas = reference_budgets(specs, budget, non_uniform)
        assume(all(math.isfinite(eta) for eta in etas))

        allocation = allocation_for(strategy.group_specs(weights), budget, non_uniform=non_uniform)
        assert_same_fields(allocation.groups, specs, ("label", "size", "constant", "weight"))
        assert [bits(e) for e in allocation.group_budgets] == [bits(e) for e in etas]
        assert bits(allocation.total_weighted_variance()) == bits(
            reference_total_variance(specs, etas, budget)
        )
        spent = reference_spent(specs, etas, budget)
        assert allocation.verify_privacy() == (spent <= budget.epsilon * (1.0 + 1e-9))
        for spec, eta in zip(specs, etas):
            assert bits(allocation.noise_variance_for(spec.label)) == bits(
                reference_row_variance(eta, budget)
            )

        plan = Planner(
            workload, strategy, non_uniform=non_uniform, query_weights=weights
        ).plan(budget)
        reference = reference_plan_groups(specs, etas, strategy.query_masks(), budget)
        assert_same_fields(plan.groups, reference, PlanGroup.__dataclass_fields__)
        assert plan.measured_cells == sum(g.size for g in reference if g.measured)
        assert plan.total_cells == sum(g.size for g in reference)
        with np.errstate(invalid="ignore"):
            expected = {
                g.label: g.weight * reference_row_variance(g.budget, budget)
                for g in reference
            }
        assert {k: bits(v) for k, v in plan.group_variances().items()} == {
            k: bits(v) for k, v in expected.items()
        }


class TestExecutorMatchesPerGroupDraws:
    @SETTINGS
    @given(
        workload_masks,
        st.sampled_from(["Q", "C", "F", "I"]),
        st.data(),
        budgets,
        st.integers(0, 2**32 - 1),
    )
    def test_flat_measurement(self, masks, name, data, budget, seed):
        workload = make_workload(masks)
        strategy = make_strategy(name, workload)
        weights = np.array(
            data.draw(st.lists(query_weight, min_size=len(masks), max_size=len(masks)))
        )
        assume(weights.sum() > 0)
        counts = np.array(data.draw(st.lists(st.integers(0, 30), min_size=64, max_size=64)))
        x = counts.astype(np.float64)
        plan = Planner(workload, strategy, query_weights=weights).plan(budget)
        expected = reference_measure(
            strategy, x, plan.allocation, np.random.default_rng(seed)
        )
        flat = Executor(strategy).measure(plan, x, np.random.default_rng(seed)).flat
        assert flat.tobytes() == expected.tobytes()
        direct = strategy.measure(x, plan.allocation, np.random.default_rng(seed)).flat
        assert direct.tobytes() == expected.tobytes()
