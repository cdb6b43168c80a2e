"""Analytic output variances for the built-in strategies.

Given a strategy and a noise allocation, these helpers evaluate the output
variance ``Var(y)`` of the initial (strategy-defined) recovery without
drawing any noise.  They are used for planning, for the Table 1 benchmark,
and by tests that check the closed-form budgeting formulas against the
strategies' structural descriptions.

The reported quantity for each query is the *total* variance over its cells
(``sum_gamma Var(y_{q, gamma})``); divide by ``query.size`` for the per-cell
variance.  The variances refer to the estimate produced directly by the
strategy's recovery; the consistency projection applied afterwards can only
reduce the expected error further.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.budget.allocation import NoiseAllocation
from repro.exceptions import BudgetError
from repro.recovery.least_squares import gls_recovery_matrix, recovery_variances
from repro.strategies.base import Strategy
from repro.strategies.explicit import ExplicitMatrixStrategy
from repro.strategies.fourier import FourierStrategy, _group_label as _fourier_label
from repro.strategies.identity import IdentityStrategy, _GROUP_LABEL as _IDENTITY_LABEL
from repro.strategies.marginal import MarginalSetStrategy, _group_label as _marginal_label
from repro.utils.bits import dominated_by


def per_query_variances(strategy: Strategy, allocation: NoiseAllocation) -> np.ndarray:
    """Total output variance per workload query for the given allocation."""
    workload = strategy.workload
    d = workload.dimension

    if isinstance(strategy, IdentityStrategy):
        row_variance = allocation.noise_variance_for(_IDENTITY_LABEL)
        # Every query cell aggregates 2**(d - k) base cells; summed over the
        # 2**k cells of the marginal this gives 2**d * row variance.
        return np.full(len(workload), (2.0**d) * row_variance)

    if isinstance(strategy, MarginalSetStrategy):
        assignment = strategy.assignment
        variances = []
        for query in workload.queries:
            source = assignment[query.mask]
            row_variance = allocation.noise_variance_for(_marginal_label(source))
            variances.append((2.0 ** bin(source).count("1")) * row_variance)
        return np.array(variances)

    if isinstance(strategy, FourierStrategy):
        coefficient_variance: Dict[int, float] = {
            beta: allocation.noise_variance_for(_fourier_label(beta))
            for beta in strategy.coefficient_masks
        }
        variances = []
        for query in workload.queries:
            total = 0.0
            for beta, var in coefficient_variance.items():
                if dominated_by(beta, query.mask):
                    # Each of the 2**k cells uses the coefficient with weight
                    # (2**(d/2 - k))**2; summed over cells: 2**(d - k).
                    total += (2.0 ** (d - query.order)) * var
            variances.append(total)
        return np.array(variances)

    if isinstance(strategy, ExplicitMatrixStrategy):
        row_variances = strategy.row_noise_variances(allocation)
        recovery = gls_recovery_matrix(
            strategy.query_matrix, strategy.strategy_matrix, row_variances
        )
        cell_variances = recovery_variances(recovery, row_variances)
        totals = []
        offset = 0
        for query in workload.queries:
            totals.append(float(cell_variances[offset : offset + query.size].sum()))
            offset += query.size
        return np.array(totals)

    raise BudgetError(
        f"no analytic variance formula registered for strategy type {type(strategy).__name__}"
    )


def total_weighted_variance(
    strategy: Strategy, allocation: NoiseAllocation, a=None
) -> float:
    """Weighted total output variance ``sum_q a_q * Var(query q)``.

    With default weights this equals
    :meth:`repro.budget.allocation.NoiseAllocation.total_weighted_variance`
    when the allocation was built from this strategy's group specs.
    """
    per_query = per_query_variances(strategy, allocation)
    weights = strategy.resolve_query_weights(a)
    return float(np.dot(weights, per_query))
