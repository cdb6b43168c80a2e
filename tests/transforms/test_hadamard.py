"""Walsh–Hadamard (Fourier) transform properties over the Boolean hypercube.

The transform lives in :mod:`repro.fourier`; per-mask coefficients come from
the dense count source and marginals are rebuilt through
:class:`repro.fourier.WorkloadFourierIndex`, the paths the Fourier strategy
uses.  Each check compares against the full orthonormal transform or the
exact marginal, never against the code under test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.domain.contingency import marginal_from_vector
from repro.fourier import WorkloadFourierIndex, fwht, inverse_fwht
from repro.queries import all_k_way
from repro.sources import DenseCubeSource


class TestFwht:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            fwht(np.zeros(6))
        with pytest.raises(ValueError):
            fwht(np.zeros(0))

    def test_involution(self, random_counts_5):
        assert np.allclose(fwht(fwht(random_counts_5)), random_counts_5)

    def test_inverse_is_forward(self, random_counts_5):
        assert np.allclose(inverse_fwht(fwht(random_counts_5)), random_counts_5)


class TestCoefficientsForMask:
    def test_matches_full_transform(self, random_counts_5):
        full = fwht(random_counts_5)
        coefficients = DenseCubeSource(random_counts_5, 5).fourier_coefficients_for_masks(
            [0b10110]
        )
        assert len(coefficients) == 8
        for beta, value in coefficients.items():
            assert beta & 0b10110 == beta
            assert value == pytest.approx(full[beta])

    def test_masks_collection(self, random_counts_5, binary_schema_5):
        workload = all_k_way(binary_schema_5, 2)
        full = fwht(random_counts_5)
        coefficients = DenseCubeSource(random_counts_5, 5).fourier_coefficients_for_masks(
            workload.masks
        )
        assert set(coefficients) == set(workload.fourier_masks())
        for beta, value in coefficients.items():
            assert value == pytest.approx(full[beta])


class TestMarginalFromFourier:
    def test_exact_round_trip(self, random_counts_5):
        d = 5
        source = DenseCubeSource(random_counts_5, d)
        for mask in [0b00001, 0b01101, 0b11111, 0b00000]:
            index = WorkloadFourierIndex(d, [mask])
            coefficients = source.fourier_coefficients_for_masks([mask])
            (reconstructed,) = index.marginals_from_coefficients(
                index.coefficient_array_from_mapping(coefficients)
            )
            assert np.allclose(reconstructed, marginal_from_vector(random_counts_5, mask, d))

    def test_missing_coefficient_raises(self):
        index = WorkloadFourierIndex(3, [0b11])
        with pytest.raises(KeyError):
            index.coefficient_array_from_mapping({0: 1.0})
