"""Explicit dense-matrix strategies (wavelet, hierarchical, sketches, ...).

``ExplicitMatrixStrategy`` wraps an arbitrary dense strategy matrix ``S`` over
a small domain.  Group structure is discovered with the greedy grouping of
Definition 3.1, the initial recovery ``R0 = Q S^+`` provides the recovery
weights for the budget allocation, and reconstruction uses the generalised
least-squares recovery of Section 3.2 with the allocation's per-row noise
variances.  This is the reference implementation of the full
strategy/recovery/budgeting loop and the vehicle for strategies the paper
mentions but does not specialise (Haar wavelets, hierarchical decompositions,
random projections).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.budget.allocation import NoiseAllocation
from repro.budget.grouping import GroupSpec, greedy_grouping, group_specs_from_matrices
from repro.exceptions import RecoveryError, WorkloadError
from repro.queries.matrix import workload_matrix
from repro.queries.workload import MarginalWorkload
from repro.recovery.least_squares import gls_estimate
from repro.strategies.base import Measurement, Strategy


class ExplicitMatrixStrategy(Strategy):
    """Strategy defined by an explicit dense matrix over a small domain.

    The strategy rows are not mask-indexed, so the plan executor measures
    them with the ``"matrix"`` kernel (one dense product, one noise draw).

    Parameters
    ----------
    workload:
        The marginal workload to answer (its dense query matrix is built
        internally, so the domain must be small enough to materialise).
    strategy_matrix:
        The ``m x N`` strategy matrix ``S``.  Its row space must contain the
        row space of the workload matrix, otherwise recovery is impossible.
    name:
        Strategy identifier (e.g. ``"wavelet"``, ``"hierarchical"``).
    """

    measurement_kind = "matrix"

    def __init__(
        self,
        workload: MarginalWorkload,
        strategy_matrix: np.ndarray,
        *,
        name: str = "explicit",
    ):
        super().__init__(workload, name=name)
        dense = np.asarray(strategy_matrix, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[1] != workload.domain_size:
            raise WorkloadError(
                f"strategy matrix must have {workload.domain_size} columns, got shape {dense.shape}"
            )
        self._strategy = dense
        self._queries = workload_matrix(workload)
        self._groups = greedy_grouping(dense)
        # Initial recovery (uniform-noise least squares) used only to weight
        # the budget allocation, mirroring Figure 3's "initialise recovery".
        pseudo_inverse = np.linalg.pinv(dense)
        self._initial_recovery = self._queries @ pseudo_inverse
        residual = self._queries - self._initial_recovery @ dense
        if np.abs(residual).max(initial=0.0) > 1e-6:
            raise RecoveryError(
                "the workload cannot be expressed over the strategy's row space "
                f"(max residual {np.abs(residual).max():.3g}); choose a richer strategy"
            )

    # ------------------------------------------------------------------ #
    @property
    def strategy_matrix(self) -> np.ndarray:
        """The dense strategy matrix ``S``."""
        return self._strategy

    @property
    def query_matrix(self) -> np.ndarray:
        """The dense workload matrix ``Q``."""
        return self._queries

    @property
    def row_groups(self) -> List[List[int]]:
        """Greedy grouping of the strategy rows (row indices per group)."""
        return [list(rows) for rows in self._groups]

    def group_specs(self, a: Optional[Sequence[float]] = None) -> List[GroupSpec]:
        weights = self.resolve_query_weights(a)
        # Expand per-query weights to per-cell weights for the dense machinery.
        cell_weights = np.concatenate(
            [np.full(query.size, w) for query, w in zip(self._workload.queries, weights)]
        )
        labels = [f"{self._name}-group-{position}" for position in range(len(self._groups))]
        return group_specs_from_matrices(
            self._strategy,
            self._initial_recovery,
            self._groups,
            a=cell_weights,
            labels=labels,
        )

    # ------------------------------------------------------------------ #
    def row_budgets(self, allocation: NoiseAllocation) -> np.ndarray:
        """Per-strategy-row budgets ``eta`` implied by a group allocation."""
        budgets = np.zeros(self._strategy.shape[0], dtype=np.float64)
        for group_rows, eta in zip(self._groups, allocation.group_budgets):
            budgets[list(group_rows)] = eta
        return budgets

    def row_noise_variances(self, allocation: NoiseAllocation) -> np.ndarray:
        """Per-row noise variances implied by an allocation (used by GLS)."""
        budgets = self.row_budgets(allocation)
        variances = np.full(self._strategy.shape[0], np.inf)
        positive = budgets > 0
        if allocation.is_pure:
            variances[positive] = 2.0 / budgets[positive] ** 2
        else:
            variances[positive] = (
                2.0 * np.log(2.0 / allocation.budget.delta) / budgets[positive] ** 2
            )
        return variances

    def estimate(self, measurement: Measurement) -> List[np.ndarray]:
        # The matrix kernel's flat measurement holds the rows in matrix order.
        variances = self.row_noise_variances(measurement.allocation)
        flat = gls_estimate(self._queries, self._strategy, variances, measurement.flat)
        return self._workload.split_flat(flat)
