"""The Fourier strategy of Barak et al. [1], with non-uniform budgeting.

The strategy measures exactly the Fourier coefficients the workload depends
on, i.e. the set ``F = { beta : beta ⪯ alpha_i for some query alpha_i }``
(Section 4).  Every coefficient forms its own group with constant
``C = 2**(-d/2)`` (the Hadamard basis is dense with entries of that
magnitude), and its recovery weight is

    s_beta = sum over queries alpha ⪰ beta of a_q * 2**(d - ||alpha||),

since cell ``gamma`` of marginal ``alpha`` depends on coefficient ``beta``
with coefficient ``(C^alpha f^beta)_gamma = ±2**(d/2 - ||alpha||)``
(Theorem 4.1).  Reconstruction applies Theorem 4.1(2) per query and is
automatically consistent: all marginals are derived from one coefficient
vector.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.budget.grouping import GroupTable
from repro.exceptions import WorkloadError
from repro.fourier.index import WorkloadFourierIndex
from repro.queries.workload import MarginalWorkload
from repro.strategies.base import Measurement, Strategy

_GROUP_PREFIX = "fourier-"


def _group_label(mask: int) -> str:
    return f"{_GROUP_PREFIX}{mask:#x}"


class FourierStrategy(Strategy):
    """Measure the workload's Fourier coefficients and reconstruct marginals."""

    inherently_consistent = True
    measurement_kind = "fourier"

    def __init__(self, workload: MarginalWorkload, *, name: str = "F"):
        super().__init__(workload, name=name)
        self._coefficient_masks = workload.fourier_masks()
        if not self._coefficient_masks:
            raise WorkloadError("workload has an empty Fourier support")

    # ------------------------------------------------------------------ #
    @property
    def coefficient_masks(self) -> Sequence[int]:
        """Masks of the measured Fourier coefficients (the set ``F``)."""
        return self._coefficient_masks

    def group_table(self, a: Optional[Sequence[float]] = None) -> GroupTable:
        weights = self.resolve_query_weights(a)
        count = len(self._coefficient_masks)
        # The index orders its coefficients like ``fourier_masks()``.
        index = WorkloadFourierIndex.for_workload(self._workload)
        return GroupTable(
            [_group_label(beta) for beta in self._coefficient_masks],
            np.ones(count, dtype=np.int64),
            np.full(count, 2.0 ** (-self.dimension / 2.0)),
            index.coefficient_weights(weights),
            masks=self._coefficient_masks,
        )

    def estimate(self, measurement: Measurement) -> List[np.ndarray]:
        # The flat measurement holds the coefficients in index order: one
        # inverse butterfly per marginal order instead of per query.
        index = WorkloadFourierIndex.for_workload(self._workload)
        return index.marginals_from_coefficients(measurement.flat)

    def noisy_coefficients(self, measurement: Measurement) -> Dict[int, float]:
        """The noisy Fourier coefficients of a measurement, keyed by mask."""
        return dict(zip(self._coefficient_masks, measurement.flat.tolist()))
