"""General convex solver for the noise-budgeting problem (1)–(3).

The paper notes the general problem

    minimise   sum_i b_i / eps_i**2
    subject to sum_i |S_ij| * eps_i <= epsilon   for every column j
               eps_i >= 0

is convex and can be handed to an interior-point style solver.  This module
does exactly that with :mod:`scipy.optimize`, working in the substituted
variable ``u_i = 1 / eps_i**2`` is avoided in favour of optimising ``eps``
directly with SLSQP from a feasible uniform starting point.  It exists as a
reference implementation: the closed-form group solution of
:mod:`repro.budget.allocation` is validated against it in the test suite and
is the path used by the release engine (the convex solve is orders of
magnitude slower, which is one of the paper's motivations).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import optimize

from repro.exceptions import BudgetError


@dataclass(frozen=True)
class ConvexBudgetSolution:
    """Result of the general convex budgeting solve."""

    epsilons: np.ndarray
    objective: float
    converged: bool
    iterations: int


def _validate_inputs(strategy: np.ndarray, weights: np.ndarray, epsilon: float) -> None:
    if strategy.ndim != 2:
        raise BudgetError(f"strategy must be a 2-D matrix, got shape {strategy.shape}")
    if weights.shape != (strategy.shape[0],):
        raise BudgetError(
            f"weights must have one entry per strategy row ({strategy.shape[0]}), "
            f"got shape {weights.shape}"
        )
    if np.any(weights < 0):
        raise BudgetError("recovery weights must be non-negative")
    if epsilon <= 0:
        raise BudgetError(f"epsilon must be positive, got {epsilon}")
    column_norms = np.abs(strategy).sum(axis=0)
    if np.any(column_norms == 0):
        # Columns never touched by the strategy do not constrain the budgets.
        pass
    if not np.any(np.abs(strategy) > 0):
        raise BudgetError("strategy matrix is identically zero")


def solve_budget_problem(
    strategy: np.ndarray,
    weights: np.ndarray,
    epsilon: float,
    *,
    variance_constant: float = 2.0,
    max_iterations: int = 500,
    tol: float = 1e-10,
) -> ConvexBudgetSolution:
    """Solve the general per-row budgeting problem for a dense strategy matrix.

    Parameters
    ----------
    strategy:
        The ``m x N`` strategy matrix ``S``.
    weights:
        Per-row recovery weights ``w_i = sum_j a_j R_ji**2`` (the paper's
        ``b_i`` equals ``variance_constant * w_i``).
    epsilon:
        Total pure-DP budget; the constraints are
        ``sum_i |S_ij| eps_i <= epsilon`` for every column ``j``.
    variance_constant:
        Multiplier applied to the objective (2 for the Laplace mechanism);
        it does not change the optimiser, only the reported objective value.

    Returns
    -------
    ConvexBudgetSolution
        Optimal per-row budgets, the attained objective
        ``variance_constant * sum_i w_i / eps_i**2``, and solver diagnostics.
    """
    dense = np.asarray(strategy, dtype=np.float64)
    weight_vector = np.asarray(weights, dtype=np.float64)
    _validate_inputs(dense, weight_vector, epsilon)

    m = dense.shape[0]
    abs_strategy = np.abs(dense)
    # Drop all-zero columns: they impose no constraint.
    column_mask = abs_strategy.sum(axis=0) > 0
    constraints_matrix = abs_strategy[:, column_mask].T  # one row per active column

    active = weight_vector > 0
    if not np.any(active):
        raise BudgetError("every strategy row has zero recovery weight; nothing to optimise")

    # Feasible, strictly positive start: uniform budgets at the classic
    # Laplace level epsilon / Delta_1.
    delta_1 = constraints_matrix.sum(axis=1).max()
    start = np.full(m, epsilon / delta_1, dtype=np.float64)

    floor = epsilon / delta_1 * 1e-6  # keep the objective differentiable

    def objective(eps: np.ndarray) -> float:
        return float(np.sum(weight_vector[active] / np.maximum(eps[active], floor) ** 2))

    def gradient(eps: np.ndarray) -> np.ndarray:
        grad = np.zeros_like(eps)
        clipped = np.maximum(eps[active], floor)
        grad[active] = -2.0 * weight_vector[active] / clipped**3
        return grad

    constraints = [
        {
            "type": "ineq",
            "fun": lambda eps, row=row: epsilon - float(np.dot(row, eps)),
            "jac": lambda eps, row=row: -row,
        }
        for row in constraints_matrix
    ]
    bounds = [(floor, None) if active[i] else (floor, epsilon) for i in range(m)]

    result = optimize.minimize(
        objective,
        start,
        jac=gradient,
        bounds=bounds,
        constraints=constraints,
        method="SLSQP",
        options={"maxiter": max_iterations, "ftol": tol},
    )
    epsilons = np.asarray(result.x, dtype=np.float64)
    # SLSQP can stop (converged or not) at a point that overshoots a column
    # constraint; scale it back onto the constraint so the returned budgets
    # always satisfy epsilon-DP.
    largest_column = float((constraints_matrix @ epsilons).max())
    if largest_column > epsilon:
        epsilons = epsilons * (epsilon / largest_column)
    attained = variance_constant * objective(epsilons)
    return ConvexBudgetSolution(
        epsilons=epsilons,
        objective=float(attained),
        converged=bool(result.success),
        iterations=int(result.get("nit", 0) or 0),
    )
