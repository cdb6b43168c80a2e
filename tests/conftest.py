"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.domain import Attribute, ContingencyTable, Dataset, Schema
from repro.queries import MarginalQuery, MarginalWorkload, all_k_way


# --------------------------------------------------------------------------- #
# schemas
# --------------------------------------------------------------------------- #
@pytest.fixture
def binary_schema_3() -> Schema:
    """Three binary attributes (the paper's worked example domain)."""
    return Schema.binary(["A", "B", "C"])


@pytest.fixture
def binary_schema_5() -> Schema:
    """Five binary attributes (32-cell domain, cheap for dense comparisons)."""
    return Schema.binary(["a", "b", "c", "d", "e"])


@pytest.fixture
def mixed_schema() -> Schema:
    """Attributes of mixed cardinality (2, 3, 4) -> 1 + 2 + 2 = 5 bits."""
    return Schema(
        [Attribute("x", 2), Attribute("y", 3), Attribute("z", 4)]
    )


# --------------------------------------------------------------------------- #
# data
# --------------------------------------------------------------------------- #
@pytest.fixture
def paper_example_table(binary_schema_3) -> ContingencyTable:
    """The five-row table of Figure 1(a): x = (1, 2, 0, 1, 0, 0, 1, 0)."""
    records = [
        (0, 0, 1),
        (0, 1, 1),
        (0, 0, 0),
        (0, 0, 1),
        (1, 1, 0),
    ]
    return Dataset.from_tuples(binary_schema_3, records).contingency_table()


@pytest.fixture
def random_counts_5(binary_schema_5) -> np.ndarray:
    """A reproducible random count vector over the 5-bit domain."""
    rng = np.random.default_rng(20130401)
    return rng.integers(0, 50, size=binary_schema_5.domain_size).astype(float)


@pytest.fixture
def small_dataset(binary_schema_5) -> Dataset:
    """A reproducible random dataset of 600 records over 5 binary attributes."""
    rng = np.random.default_rng(42)
    records = rng.integers(0, 2, size=(600, 5))
    return Dataset(binary_schema_5, records, name="small-test-data")


# --------------------------------------------------------------------------- #
# workloads
# --------------------------------------------------------------------------- #
@pytest.fixture
def workload_2way_5(binary_schema_5) -> MarginalWorkload:
    """All 2-way marginals over the 5-attribute binary schema."""
    return all_k_way(binary_schema_5, 2)


@pytest.fixture
def paper_example_workload(binary_schema_3) -> MarginalWorkload:
    """The workload of Figure 1(b): the marginal on A and the marginal on A, B."""
    return MarginalWorkload(
        binary_schema_3,
        [
            MarginalQuery.from_attributes(binary_schema_3, ["A"]),
            MarginalQuery.from_attributes(binary_schema_3, ["A", "B"]),
        ],
        name="intro-example",
    )


# --------------------------------------------------------------------------- #
# helpers (imported by tests as plain functions)
# --------------------------------------------------------------------------- #
def brute_force_marginal(x: np.ndarray, mask: int, d: int) -> np.ndarray:
    """O(N * 2**k) reference implementation of the marginal operator."""
    from repro.utils.bits import hamming_weight, project_index

    out = np.zeros(1 << hamming_weight(mask))
    for index, value in enumerate(np.asarray(x, dtype=float)):
        out[project_index(index, mask)] += value
    return out


def marginals_are_consistent(workload: MarginalWorkload, marginals, *, tol: float = 1e-6) -> bool:
    """Check mutual consistency: overlapping marginals agree on their common part."""
    from repro.strategies.marginal import submarginal

    for i, query_i in enumerate(workload.queries):
        for j, query_j in enumerate(workload.queries):
            if j <= i:
                continue
            common = query_i.mask & query_j.mask
            from_i = submarginal(marginals[i], query_i.mask, common)
            from_j = submarginal(marginals[j], query_j.mask, common)
            if not np.allclose(from_i, from_j, atol=tol * (1 + np.abs(from_i).max())):
                return False
    return True
