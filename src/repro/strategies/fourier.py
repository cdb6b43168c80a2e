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

from repro.budget.allocation import NoiseAllocation
from repro.budget.grouping import GroupSpec
from repro.exceptions import WorkloadError
from repro.mechanisms.noise import (
    gaussian_noise,
    gaussian_sigma_for_budget,
    laplace_noise,
    laplace_scale_for_budget,
)
from repro.fourier.index import WorkloadFourierIndex
from repro.queries.workload import MarginalWorkload
from repro.sources.dense import DenseCubeSource
from repro.strategies.base import Measurement, Strategy
from repro.utils.rng import RngLike, ensure_rng

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

    def query_masks(self) -> tuple:
        """The measured coefficient masks, aligned with :meth:`group_specs`."""
        return tuple(self._coefficient_masks)

    def build_measurement(self, values, allocation) -> Measurement:
        coefficients = {
            int(label[len(_GROUP_PREFIX) :], 16): float(array[0])
            for label, array in values.items()
        }
        return Measurement(
            strategy_name=self._name,
            allocation=allocation,
            values=values,
            metadata={"coefficients": coefficients},
        )

    def group_specs(self, a: Optional[Sequence[float]] = None) -> List[GroupSpec]:
        weights = self.resolve_query_weights(a)
        d = self.dimension
        constant = 2.0 ** (-d / 2.0)
        # Accumulate each coefficient's recovery weight by walking the (much
        # smaller) per-query Fourier supports instead of testing every
        # (coefficient, query) pair.
        weight_of: Dict[int, float] = {beta: 0.0 for beta in self._coefficient_masks}
        for query, query_weight in zip(self._workload.queries, weights):
            contribution = float(query_weight) * (2.0 ** (d - query.order))
            if contribution == 0.0:
                continue
            for beta in query.fourier_support():
                weight_of[beta] += contribution
        return [
            GroupSpec(
                label=_group_label(beta), size=1, constant=constant, weight=weight_of[beta]
            )
            for beta in self._coefficient_masks
        ]

    def measure(
        self, x: np.ndarray, allocation: NoiseAllocation, rng: RngLike = None
    ) -> Measurement:
        vector = self.check_vector(x)
        self.check_allocation(allocation)
        generator = ensure_rng(rng)
        exact = DenseCubeSource(vector, self.dimension).fourier_coefficients_for_masks(
            self._workload.masks
        )
        budgets = np.array(
            [allocation.budget_for(_group_label(beta)) for beta in self._coefficient_masks]
        )
        measured = budgets > 0.0
        noise = np.zeros(len(self._coefficient_masks))
        if np.any(measured):
            if allocation.is_pure:
                noise[measured] = laplace_noise(
                    laplace_scale_for_budget(budgets[measured]), int(measured.sum()), generator
                )
            else:
                noise[measured] = gaussian_noise(
                    gaussian_sigma_for_budget(budgets[measured], allocation.budget.delta),
                    int(measured.sum()),
                    generator,
                )
        values: Dict[str, np.ndarray] = {}
        noisy_coefficients: Dict[int, float] = {}
        for position, beta in enumerate(self._coefficient_masks):
            label = _group_label(beta)
            if not measured[position]:
                values[label] = np.array([np.nan])
                noisy_coefficients[beta] = np.nan
                continue
            noisy = exact[beta] + float(noise[position])
            values[label] = np.array([noisy])
            noisy_coefficients[beta] = noisy
        return Measurement(
            strategy_name=self._name,
            allocation=allocation,
            values=values,
            metadata={"coefficients": noisy_coefficients},
        )

    def estimate(self, measurement: Measurement) -> List[np.ndarray]:
        coefficients = measurement.metadata.get("coefficients")
        if coefficients is None:
            coefficients = {
                int(label[len(_GROUP_PREFIX) :], 16): float(value[0])
                for label, value in measurement.values.items()
            }
        # Batched reconstruction: gather the coefficient vector once, then one
        # inverse butterfly per marginal order instead of per query.
        index = WorkloadFourierIndex.for_workload(self._workload)
        coefficient_array = index.coefficient_array_from_mapping(coefficients)
        return index.marginals_from_coefficients(coefficient_array)

    def noisy_coefficients(self, measurement: Measurement) -> Dict[int, float]:
        """The noisy Fourier coefficients of a measurement, keyed by mask."""
        coefficients = measurement.metadata.get("coefficients")
        if coefficients is not None:
            return dict(coefficients)
        return {
            int(label[len(_GROUP_PREFIX) :], 16): float(value[0])
            for label, value in measurement.values.items()
        }
