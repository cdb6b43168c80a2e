"""Explicit (dense) matrix representations of marginal queries.

These constructions materialise the ``q x N`` matrices used in the paper's
formal development (Figure 1).  They are intended for small domains — unit
tests, the worked example of the introduction, and reference implementations
that the fast implicit code paths are validated against.  For realistic
domains (``N = 2**16`` and beyond) the library operates through the implicit
operators in :mod:`repro.domain.contingency` and :mod:`repro.transforms`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.exceptions import DomainSizeError
from repro.fourier.index import project_indices, submasks_array
from repro.utils.bits import hamming_weight, popcount_array

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.queries.workload import MarginalWorkload

#: Largest dimension for which dense operator matrices are built:
#: ``2**_MATRIX_LIMIT_BITS`` columns is the guard rail.  Tighter than the
#: count-vector limit of :mod:`repro.sources.base`, because a matrix has
#: many rows per column.
_MATRIX_LIMIT_BITS = 20


def _check_dense(d: int) -> None:
    if d > _MATRIX_LIMIT_BITS:
        raise DomainSizeError(
            f"refusing to materialise a dense matrix with 2**{d} columns "
            f"(limit 2**{_MATRIX_LIMIT_BITS}); use the implicit operators instead"
        )


def marginal_operator_matrix(mask: int, d: int) -> np.ndarray:
    """Dense ``2**||alpha|| x 2**d`` matrix of the marginal operator ``C^alpha``.

    Row ``beta`` has a 1 in column ``gamma`` iff the restriction of ``gamma``
    to the bits of ``mask`` equals ``beta`` (compact indexing).
    """
    _check_dense(d)
    n = 1 << d
    rows = 1 << hamming_weight(mask)
    matrix = np.zeros((rows, n), dtype=np.float64)
    columns = np.arange(n, dtype=np.int64)
    matrix[project_indices(columns, mask), columns] = 1.0
    return matrix


def workload_matrix(workload: "MarginalWorkload") -> np.ndarray:
    """Dense ``K x N`` query matrix of a marginal workload (rows stacked per query)."""
    d = workload.dimension
    _check_dense(d)
    blocks = [marginal_operator_matrix(query.mask, d) for query in workload.queries]
    return np.vstack(blocks)


def fourier_basis_matrix(d: int) -> np.ndarray:
    """Dense ``2**d x 2**d`` Hadamard/Fourier basis matrix.

    Row ``alpha``, column ``beta`` holds ``2**(-d/2) * (-1)**<alpha, beta>``,
    i.e. the rows are the orthonormal basis vectors ``f^alpha`` of Section 4.1.
    """
    _check_dense(d)
    n = 1 << d
    indices = np.arange(n, dtype=np.int64)
    # <alpha, beta> mod 2 via popcount of the AND, one vectorized row at a time
    # (a full n x n int64 outer product would double the peak memory).
    signs = np.empty((n, n), dtype=np.float64)
    for alpha in range(n):
        parities = popcount_array(alpha & indices) & 1
        signs[alpha] = np.where(parities == 1, -1.0, 1.0)
    return signs / np.sqrt(n)


def fourier_recovery_matrix(workload: "MarginalWorkload") -> np.ndarray:
    """Dense recovery matrix ``R`` of the Fourier strategy for a marginal workload.

    ``R`` has one row per released marginal cell ``(i, gamma)`` and one column
    per Fourier coefficient in ``workload.fourier_masks()``.  Its entries are
    ``(C^{alpha_i} f^beta)_gamma = (-1)**<beta, gamma> * 2**(d/2 - ||alpha_i||)``
    for ``beta ⪯ alpha_i`` and zero otherwise (Section 4.3).
    """
    d = workload.dimension
    coefficients = np.array(workload.fourier_masks(), dtype=np.int64)
    matrix = np.zeros((workload.total_cells, coefficients.shape[0]), dtype=np.float64)
    row = 0
    scale_base = 2.0 ** (d / 2.0)
    for query in workload.queries:
        scale = scale_base / float(query.size)
        # The full-domain masks of the query's cells and the masks of its
        # dominated coefficients are the *same* compact-ordered array.
        betas = submasks_array(query.mask)
        columns = np.searchsorted(coefficients, betas)
        parities = popcount_array(betas[:, None] & betas[None, :]) & 1
        block = np.where(parities == 1, -scale, scale)
        matrix[row : row + query.size, columns] = block
        row += query.size
    return matrix


def strategy_matrix_from_masks(masks: Sequence[int], d: int) -> np.ndarray:
    """Dense strategy matrix whose rows are the cells of the given marginals.

    This realises ``S`` for a "collection of marginals" strategy (e.g. the
    clustering strategy of [6]) on small domains: the rows of every marginal
    ``C^alpha`` for ``alpha`` in ``masks`` are stacked in order.
    """
    _check_dense(d)
    blocks = [marginal_operator_matrix(mask, d) for mask in masks]
    return np.vstack(blocks)
