"""Tests of the vectorized FWHT kernels.

The reference implementations below are verbatim copies of the pre-index
scalar code (the Python block-loop butterfly and the dict-based consistency
projection).  The vectorized kernels must reproduce them **bitwise** — ``==``,
not ``allclose`` — because seeded releases are pinned across the rewrite.
The transform itself is checked against its definition at the end.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.domain.contingency import marginal_from_vector
from repro.fourier import fwht, fwht_batch, fwht_inplace, inverse_fwht
from repro.utils.bits import parity


# --------------------------------------------------------------------------- #
# reference: the historical scalar butterfly (pre-PR implementation, verbatim)
# --------------------------------------------------------------------------- #
def reference_unnormalised_fwht_inplace(values: np.ndarray) -> None:
    n = values.shape[0]
    h = 1
    while h < n:
        for start in range(0, n, 2 * h):
            left = values[start : start + h]
            right = values[start + h : start + 2 * h]
            upper = left + right
            lower = left - right
            values[start : start + h] = upper
            values[start + h : start + 2 * h] = lower
        h *= 2


def reference_fwht(x: np.ndarray) -> np.ndarray:
    values = np.array(x, dtype=np.float64, copy=True)
    reference_unnormalised_fwht_inplace(values)
    values /= np.sqrt(values.shape[0])
    return values


finite_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


def vectors(length: int):
    return st.lists(finite_floats, min_size=length, max_size=length)


class TestFwhtBitwise:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 7), st.data())
    def test_matches_scalar_reference_bitwise(self, log_n, data):
        n = 1 << log_n
        x = np.array(data.draw(vectors(n)), dtype=np.float64)
        expected = reference_fwht(x)
        actual = fwht(x)
        assert np.array_equal(expected, actual)  # bitwise, no tolerance

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 7), st.data())
    def test_inplace_matches_scalar_reference_bitwise(self, log_n, data):
        n = 1 << log_n
        x = np.array(data.draw(vectors(n)), dtype=np.float64)
        expected = x.copy()
        reference_unnormalised_fwht_inplace(expected)
        actual = x.copy()
        fwht_inplace(actual)
        assert np.array_equal(expected, actual)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            fwht(np.zeros(6))
        with pytest.raises(ValueError):
            fwht(np.zeros(0))
        with pytest.raises(ValueError):
            fwht_inplace(np.zeros(12))

    def test_rejects_non_contiguous(self):
        values = np.zeros((4, 8))[:, ::2]
        with pytest.raises(ValueError):
            fwht_inplace(values)

    def test_involution(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=64)
        assert np.allclose(inverse_fwht(fwht(x)), x)


class TestFwhtBatch:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 6), st.data())
    def test_rows_match_single_transforms_bitwise(self, m, log_n, data):
        n = 1 << log_n
        rows = np.array(
            [data.draw(vectors(n)) for _ in range(m)], dtype=np.float64
        ).reshape(m, n)
        batched = fwht_batch(rows)
        for i in range(m):
            assert np.array_equal(batched[i], reference_fwht(rows[i]))

    def test_does_not_modify_input(self):
        rows = np.arange(12.0).reshape(3, 4)
        copy = rows.copy()
        fwht_batch(rows)
        assert np.array_equal(rows, copy)

    def test_empty_batch(self):
        out = fwht_batch(np.empty((0, 8)))
        assert out.shape == (0, 8)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            fwht_batch(np.zeros(8))
        with pytest.raises(ValueError):
            fwht_batch(np.zeros((3, 6)))

    def test_inplace_batched_matches_per_row(self):
        rng = np.random.default_rng(11)
        rows = rng.normal(size=(7, 16))
        batched = np.array(rows, order="C")
        fwht_inplace(batched)
        for i in range(rows.shape[0]):
            expected = rows[i].copy()
            reference_unnormalised_fwht_inplace(expected)
            assert np.array_equal(batched[i], expected)


# --------------------------------------------------------------------------- #
# the transform against its definition (Section 4.1)
# --------------------------------------------------------------------------- #
vectors_16 = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False, allow_infinity=False),
    min_size=16,
    max_size=16,
)


class TestFwhtDefinition:
    def test_matches_definition_small(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=8)
        coefficients = fwht(x)
        for alpha in range(8):
            expected = sum(
                ((-1) ** parity(alpha & beta)) * x[beta] for beta in range(8)
            ) / np.sqrt(8)
            assert coefficients[alpha] == pytest.approx(expected)

    def test_zero_coefficient_is_scaled_total(self, random_counts_5):
        coefficients = fwht(random_counts_5)
        assert coefficients[0] == pytest.approx(random_counts_5.sum() / np.sqrt(32))

    def test_parseval(self, random_counts_5):
        assert np.linalg.norm(fwht(random_counts_5)) == pytest.approx(
            np.linalg.norm(random_counts_5)
        )

    def test_does_not_modify_input(self, random_counts_5):
        copy = random_counts_5.copy()
        fwht(random_counts_5)
        assert np.array_equal(copy, random_counts_5)

    @settings(max_examples=30, deadline=None)
    @given(vectors_16)
    def test_involution_property(self, data):
        x = np.array(data)
        assert np.allclose(fwht(fwht(x)), x, atol=1e-8)

    @settings(max_examples=30, deadline=None)
    @given(vectors_16, vectors_16)
    def test_linearity(self, a, b):
        a, b = np.array(a), np.array(b)
        assert np.allclose(fwht(2.0 * a + 3.0 * b), 2.0 * fwht(a) + 3.0 * fwht(b), atol=1e-8)

    def test_theorem_41_dominated_coefficients_suffice(self, random_counts_5):
        """Zeroing coefficients outside the dominated set does not change the marginal."""
        d = 5
        mask = 0b00110
        full = fwht(random_counts_5)
        truncated = np.zeros_like(full)
        for beta in range(32):
            if beta & mask == beta:
                truncated[beta] = full[beta]
        reconstructed_vector = fwht(truncated)  # inverse transform of truncated spectrum
        assert np.allclose(
            marginal_from_vector(reconstructed_vector, mask, d),
            marginal_from_vector(random_counts_5, mask, d),
        )
