"""Tests for explicit dense matrix constructions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import DomainSizeError
from repro.queries import MarginalQuery, MarginalWorkload, all_k_way
from repro.queries.matrix import (
    fourier_basis_matrix,
    fourier_recovery_matrix,
    marginal_operator_matrix,
    strategy_matrix_from_masks,
    workload_matrix,
)
from repro.domain.contingency import marginal_from_vector
from repro.fourier import fwht


class TestMarginalOperatorMatrix:
    def test_shape(self):
        matrix = marginal_operator_matrix(0b011, 4)
        assert matrix.shape == (4, 16)

    def test_rows_are_partition_of_columns(self):
        matrix = marginal_operator_matrix(0b101, 4)
        assert np.array_equal(matrix.sum(axis=0), np.ones(16))
        assert set(np.unique(matrix)) <= {0.0, 1.0}

    def test_matches_implicit_operator(self, random_counts_5):
        for mask in [0b00000, 0b00111, 0b10101, 0b11111]:
            matrix = marginal_operator_matrix(mask, 5)
            assert np.allclose(matrix @ random_counts_5, marginal_from_vector(random_counts_5, mask, 5))

    def test_dense_limit_guard(self):
        with pytest.raises(DomainSizeError):
            marginal_operator_matrix(1, 25)


class TestWorkloadMatrix:
    def test_shape_and_stacking(self, paper_example_workload, paper_example_table):
        matrix = workload_matrix(paper_example_workload)
        assert matrix.shape == (6, 8)
        flat = paper_example_workload.true_answers_flat(paper_example_table)
        assert np.allclose(matrix @ paper_example_table.counts, flat)

    def test_figure_1b_structure(self, paper_example_workload):
        """Every column of the Figure 1(b) matrix has exactly two ones:
        one from the A marginal and one from the A,B marginal."""
        matrix = workload_matrix(paper_example_workload)
        assert np.array_equal(matrix.sum(axis=0), np.full(8, 2.0))
        assert np.array_equal(matrix[:2].sum(axis=0), np.ones(8))
        assert np.array_equal(matrix[2:].sum(axis=0), np.ones(8))


class TestFourierBasisMatrix:
    def test_orthonormal(self):
        matrix = fourier_basis_matrix(4)
        assert np.allclose(matrix @ matrix.T, np.eye(16))

    def test_symmetric(self):
        matrix = fourier_basis_matrix(3)
        assert np.allclose(matrix, matrix.T)

    def test_entry_magnitudes(self):
        d = 3
        matrix = fourier_basis_matrix(d)
        assert np.allclose(np.abs(matrix), 2.0 ** (-d / 2.0))

    def test_matches_fwht(self, random_counts_5):
        matrix = fourier_basis_matrix(5)
        assert np.allclose(matrix @ random_counts_5, fwht(random_counts_5))


class TestFourierRecoveryMatrix:
    def test_shape(self, binary_schema_5):
        workload = all_k_way(binary_schema_5, 2)
        recovery = fourier_recovery_matrix(workload)
        assert recovery.shape == (workload.total_cells, len(workload.fourier_masks()))

    def test_exact_reconstruction_from_exact_coefficients(self, binary_schema_5, random_counts_5):
        workload = all_k_way(binary_schema_5, 2)
        recovery = fourier_recovery_matrix(workload)
        coefficients = fwht(random_counts_5)
        ordered = np.array([coefficients[mask] for mask in workload.fourier_masks()])
        reconstructed = recovery @ ordered
        assert np.allclose(reconstructed, workload.true_answers_flat(random_counts_5))

    def test_hadamard_block_structure(self, paper_example_workload):
        """Each query block of R is (a scaled permutation of) a Hadamard matrix,
        so R^T R restricted to a block is a multiple of the identity."""
        recovery = fourier_recovery_matrix(paper_example_workload)
        d = paper_example_workload.dimension
        block = recovery[2:, :]  # the A,B marginal rows
        gram = block.T @ block
        # Columns for coefficients dominated by AB are orthogonal with equal norm.
        diagonal = np.diag(gram)
        nonzero = diagonal > 0
        assert np.allclose(gram[np.ix_(nonzero, nonzero)], np.diag(diagonal[nonzero]))
        assert np.allclose(diagonal[nonzero], 2.0 ** (d - 2))


class TestStrategyMatrixFromMasks:
    def test_stacks_marginal_operators(self, random_counts_5):
        masks = [0b00011, 0b11000]
        matrix = strategy_matrix_from_masks(masks, 5)
        assert matrix.shape == (4 + 4, 32)
        expected = np.concatenate(
            [marginal_from_vector(random_counts_5, m, 5) for m in masks]
        )
        assert np.allclose(matrix @ random_counts_5, expected)
