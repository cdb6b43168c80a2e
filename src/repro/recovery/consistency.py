"""Fast consistency for marginal workloads via Fourier coefficients (Sec. 4.3).

A collection of noisy marginals is *consistent* when some data vector could
have produced all of them exactly.  The paper's fast consistency step finds
the consistent marginals closest to the noisy ones by optimising over the
``m = |F|`` Fourier coefficients of the workload instead of the ``N = 2**d``
data cells:

    minimise  || R f_hat - c_tilde ||_p
    where     R[(i, gamma), beta] = (C^{alpha_i} f^beta)_gamma .

For ``p = 2`` the normal equations are *diagonal* (each query's block of ``R``
is a scaled Hadamard matrix, and Hadamard matrices satisfy ``H^T H = 2**k I``),
so the optimum has the closed form implemented by :func:`fourier_consistency`:
coefficient ``beta`` is the weighted average of the per-query coefficient
estimates of every query that contains ``beta``, with weights
``w_q * 2**(d - k_q)``.  This costs ``O(sum_q k_q 2**k_q)`` — independent of
``N`` — which is the efficiency claim of Section 4.3.

The projection runs entirely on the batched kernels of :mod:`repro.fourier`:
same-order noisy marginals are stacked and pushed through one vectorized
butterfly, the per-query coefficient estimates are scattered into global
numerator/denominator arrays by the workload's precomputed
:class:`~repro.fourier.WorkloadFourierIndex`, and the consistent marginals
come back through one gather + batched inverse butterfly per order — no
per-coefficient Python.  The accumulation follows the historical per-beta
order exactly, so results are bitwise identical to the scalar implementation
(property-tested in ``tests/fourier/``).

For ``p = 1`` and ``p = inf`` the problem is a linear program over the
coefficients (plus slack variables), solved with :func:`scipy.optimize.linprog`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

import numpy as np
from scipy import optimize

from repro.exceptions import ConsistencyError
from repro.fourier.index import WorkloadFourierIndex
from repro.obs import runtime as _obs
from repro.queries.matrix import fourier_recovery_matrix
from repro.queries.workload import MarginalWorkload

if TYPE_CHECKING:  # pragma: no cover - only needed for type annotations
    from repro.plan.plan import ExecutionPlan

NormOrder = Union[int, float, str]


@dataclass
class ConsistencyResult:
    """Outcome of a consistency projection.

    Attributes
    ----------
    marginals:
        Consistent marginal vectors, one per workload query (workload order).
    coefficients:
        The fitted Fourier coefficients ``{beta: value}`` the marginals are
        derived from (so they are consistent by construction).
    residual:
        The attained ``||y_consistent - y_noisy||_p``.
    norm:
        Which norm the projection minimised (2, 1 or ``"inf"``).
    """

    marginals: List[np.ndarray]
    coefficients: Dict[int, float]
    residual: float
    norm: NormOrder


def _flat_estimates(
    workload: MarginalWorkload, estimates: Sequence[np.ndarray]
) -> np.ndarray:
    """The noisy marginals back to back, checked for count, shape and
    finiteness at once; the per-query scans only run on the error path, to
    name the offending query."""
    if len(estimates) != len(workload):
        raise ConsistencyError(
            f"expected {len(workload)} noisy marginals, got {len(estimates)}"
        )
    shapes = list(map(np.shape, estimates))
    if shapes != [(size,) for size in workload.sizes.tolist()]:
        for query, shape in zip(workload.queries, shapes):
            if shape != (query.size,):
                raise ConsistencyError(
                    f"noisy marginal for query {query.mask:#x} must have {query.size} "
                    f"cells, got shape {shape}"
                )
    flat = np.concatenate(estimates, dtype=np.float64)
    if not np.isfinite(flat).all():
        for query, estimate in zip(workload.queries, estimates):
            if not np.isfinite(estimate).all():
                raise ConsistencyError(
                    f"noisy marginal for query {query.mask:#x} contains non-finite values"
                )
    return flat


def _resolve_query_weights(
    workload: MarginalWorkload, query_weights: Optional[Sequence[float]]
) -> np.ndarray:
    if query_weights is None:
        return np.ones(len(workload), dtype=np.float64)
    weights = np.asarray(query_weights, dtype=np.float64)
    if weights.shape != (len(workload),):
        raise ConsistencyError(
            f"expected {len(workload)} query weights, got shape {weights.shape}"
        )
    if np.any(weights < 0) or not np.any(weights > 0):
        raise ConsistencyError("query weights must be non-negative with at least one positive")
    return weights


def _residual(consistent: np.ndarray, noisy: np.ndarray, norm: NormOrder) -> float:
    difference = consistent - noisy
    if norm == 2:
        return float(np.linalg.norm(difference, 2))
    if norm == 1:
        return float(np.abs(difference).sum())
    return float(np.abs(difference).max(initial=0.0))


# --------------------------------------------------------------------------- #
# L2: closed form via small Hadamard transforms
# --------------------------------------------------------------------------- #
def fourier_consistency(
    workload: MarginalWorkload,
    noisy_marginals: Sequence[np.ndarray],
    *,
    query_weights: Optional[Sequence[float]] = None,
) -> ConsistencyResult:
    """Least-squares consistency projection in Fourier-coefficient space.

    ``query_weights`` allows a (generalised) weighted projection: queries with
    larger weight pull the shared coefficients harder.  Passing the inverse
    noise variance of each query's cells approximates the optimal (GLS)
    recovery of Section 3.2 while keeping the closed form.

    The whole projection is batched through the workload's cached
    :class:`~repro.fourier.WorkloadFourierIndex`: stack marginals by order →
    one butterfly per order → one ordered scatter into the global
    numerator/denominator arrays → gather + batched inverse butterfly for the
    consistent marginals.
    """
    noisy = _flat_estimates(workload, noisy_marginals)
    weights = _resolve_query_weights(workload, query_weights)
    with _obs.trace_span(
        "consistency.fourier", queries=len(workload), dimension=workload.dimension
    ):
        index = WorkloadFourierIndex.for_workload(workload)

        numerator, denominator, covered = index.consistency_normal_equations(
            noisy, weights
        )
        coefficient_array = np.zeros(index.coefficient_count, dtype=np.float64)
        np.divide(numerator, denominator, out=coefficient_array, where=covered)
        flat = index.flat_marginals_from_coefficients(coefficient_array, covered)
        residual = _residual(flat, noisy, 2)
        coefficients = index.coefficients_dict(coefficient_array, covered)
    return ConsistencyResult(workload.split_views(flat), coefficients, residual, 2)


# --------------------------------------------------------------------------- #
# L1 / Linf: linear programming over the coefficients
# --------------------------------------------------------------------------- #
_LP_SIZE_LIMIT = 4_000_000  # max entries of the dense recovery matrix


def fourier_consistency_lp(
    workload: MarginalWorkload,
    noisy_marginals: Sequence[np.ndarray],
    *,
    norm: NormOrder = 1,
) -> ConsistencyResult:
    """Consistency projection minimising the L1 or L-infinity distance.

    Solves the LP of Section 4.3 with one variable per Fourier coefficient
    (plus slack variables), so the size depends only on the workload, not on
    the domain size ``N``.
    """
    if norm not in (1, "inf", np.inf, float("inf")):
        raise ConsistencyError(f"norm must be 1 or 'inf' for the LP projection, got {norm!r}")
    is_inf = norm != 1
    target = _flat_estimates(workload, noisy_marginals)

    recovery = fourier_recovery_matrix(workload)
    total_cells, coefficient_count = recovery.shape
    if total_cells * coefficient_count > _LP_SIZE_LIMIT:
        raise ConsistencyError(
            "the LP consistency projection would require a dense matrix with "
            f"{total_cells * coefficient_count} entries; use the L2 projection "
            "(fourier_consistency) for workloads of this size"
        )

    slack_count = 1 if is_inf else total_cells
    variable_count = coefficient_count + slack_count
    # Constraints:  R f - t <= c   and  -R f - t <= -c
    if is_inf:
        slack_block = -np.ones((total_cells, 1))
    else:
        slack_block = -np.eye(total_cells)
    upper = np.hstack([recovery, slack_block])
    lower = np.hstack([-recovery, slack_block])
    a_ub = np.vstack([upper, lower])
    b_ub = np.concatenate([target, -target])
    cost = np.zeros(variable_count)
    cost[coefficient_count:] = 1.0
    bounds = [(None, None)] * coefficient_count + [(0.0, None)] * slack_count

    result = optimize.linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if not result.success:
        raise ConsistencyError(f"LP consistency projection failed: {result.message}")

    # ``fourier_recovery_matrix`` orders its columns by the sorted
    # ``workload.fourier_masks()`` — exactly the index's coefficient order.
    index = WorkloadFourierIndex.for_workload(workload)
    coefficient_array = np.asarray(result.x[:coefficient_count], dtype=np.float64)
    coefficients = index.coefficients_dict(coefficient_array)
    flat = index.flat_marginals_from_coefficients(coefficient_array)
    norm = "inf" if is_inf else 1
    residual = _residual(flat, target, norm)
    return ConsistencyResult(workload.split_views(flat), coefficients, residual, norm)


def make_consistent(
    workload: MarginalWorkload,
    noisy_marginals: Sequence[np.ndarray],
    *,
    norm: NormOrder = 2,
    query_weights: Optional[Sequence[float]] = None,
    plan: Optional["ExecutionPlan"] = None,
) -> ConsistencyResult:
    """Dispatch to the closed-form L2 projection or the L1/Linf linear program.

    ``plan`` may carry the :class:`~repro.plan.plan.ExecutionPlan` of the
    release being finalized; its pre-resolved ``query_weights`` are then used
    for the L2 projection instead of re-deriving the per-query weights here
    (an explicit ``query_weights`` argument still wins).  For plans built
    without explicit weights this is the uniform projection, unchanged; for
    weighted plans the projection minimises the same weighted objective the
    noise allocation optimised.
    """
    if norm == 2:
        if query_weights is None and plan is not None:
            query_weights = plan.query_weights
        return fourier_consistency(workload, noisy_marginals, query_weights=query_weights)
    if query_weights is not None:
        raise ConsistencyError("query weights are only supported by the L2 projection")
    return fourier_consistency_lp(workload, noisy_marginals, norm=norm)
