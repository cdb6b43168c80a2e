"""The per-group measurement the plan executor replaced, as a test reference.

Before the executor measured every strategy in one batched pass, each
strategy ran its own loop: exact values group by group, then one noise draw
per group from the shared generator, in group order.  A group without budget
was released as NaN and drew nothing.  The executor's single vectorized draw
must reproduce these values bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.domain.contingency import marginal_from_vector
from repro.mechanisms.noise import (
    gaussian_noise,
    gaussian_sigma_for_budget,
    laplace_noise,
    laplace_scale_for_budget,
)
from repro.sources.dense import DenseCubeSource
from repro.strategies import FourierStrategy, IdentityStrategy


def reference_draw(etas, budget, generator):
    """One group's noise for per-row budgets ``etas``."""
    etas = np.asarray(etas, dtype=np.float64)
    if budget.is_pure:
        return laplace_noise(laplace_scale_for_budget(etas), etas.size, generator)
    return gaussian_noise(gaussian_sigma_for_budget(etas, budget.delta), etas.size, generator)


def reference_measure(strategy, x, allocation, generator):
    """The noisy cells of every group, in group order, drawn group by group
    (Fourier: one draw over the measured coefficients, as its loop did)."""
    budget = allocation.budget
    d = strategy.dimension
    if isinstance(strategy, FourierStrategy):
        exact = DenseCubeSource(x, d).fourier_coefficients_for_masks(strategy.workload.masks)
        etas = np.array(
            [allocation.budget_for(f"fourier-{beta:#x}") for beta in strategy.coefficient_masks]
        )
        measured = etas > 0.0
        noise = np.zeros(etas.size)
        if measured.any():
            noise[measured] = reference_draw(etas[measured], budget, generator)
        return np.array(
            [
                exact[beta] + float(noise[i]) if measured[i] else np.nan
                for i, beta in enumerate(strategy.coefficient_masks)
            ]
        )
    if isinstance(strategy, IdentityStrategy):
        eta = allocation.budget_for("base-counts")
        return x + reference_draw(np.full(x.size, eta), budget, generator)
    parts = []
    for mask in strategy.strategy_masks:
        eta = allocation.budget_for(f"marginal-{mask:#x}")
        exact = marginal_from_vector(x, mask, d)
        if eta <= 0.0:
            parts.append(np.full_like(exact, np.nan))
        else:
            parts.append(exact + reference_draw(np.full(exact.size, eta), budget, generator))
    return np.concatenate(parts)
