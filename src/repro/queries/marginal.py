"""Marginal queries.

A :class:`MarginalQuery` is identified by a bit mask ``alpha`` over the
``d`` binary attributes of a schema: it asks for the vector of counts
``C^alpha x`` with one cell per combination of the attributes in ``alpha``
(Section 4.1 of the paper).  Queries over the original categorical
attributes use the union of the attributes' bit blocks as their mask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.domain.contingency import ContingencyTable, marginal_from_vector
from repro.domain.schema import AttributeRef, Schema
from repro.exceptions import WorkloadError
from repro.utils.bits import dominated_by, iter_submasks


@dataclass(frozen=True, order=True)
class MarginalQuery:
    """One marginal (subcube of the datacube), identified by its bit mask.

    Parameters
    ----------
    mask:
        Bit mask ``alpha`` of the binary attributes retained by the marginal.
    dimension:
        The total number of binary attributes ``d`` of the domain the query
        is asked over.  Kept on the query so that a query is self-describing
        and can validate the vectors it is applied to.
    """

    mask: int
    dimension: int

    def __post_init__(self) -> None:
        if self.dimension <= 0:
            raise WorkloadError(f"dimension must be positive, got {self.dimension}")
        if not (0 <= self.mask < (1 << self.dimension)):
            raise WorkloadError(
                f"mask {self.mask} does not address a {self.dimension}-bit domain"
            )

    # ------------------------------------------------------------------ #
    @property
    def order(self) -> int:
        """Number of binary attributes in the marginal (``||alpha||``)."""
        return int(self.mask).bit_count()

    @property
    def size(self) -> int:
        """Number of cells of the marginal, ``2**order``."""
        return 1 << self.order

    @property
    def domain_size(self) -> int:
        """Size of the full domain the query is defined over."""
        return 1 << self.dimension

    def __repr__(self) -> str:
        return f"MarginalQuery(mask={self.mask:#x}, order={self.order}, d={self.dimension})"

    # ------------------------------------------------------------------ #
    def evaluate(self, x: np.ndarray) -> np.ndarray:
        """Exact answer ``C^alpha x`` on a count vector of length ``2**d``."""
        return marginal_from_vector(np.asarray(x, dtype=np.float64), self.mask, self.dimension)

    def evaluate_table(self, table: ContingencyTable) -> np.ndarray:
        """Exact answer on a :class:`ContingencyTable`."""
        if table.dimension != self.dimension:
            raise WorkloadError(
                f"query over {self.dimension} bits applied to a table over "
                f"{table.dimension} bits"
            )
        return table.marginal_by_mask(self.mask)

    def fourier_support(self) -> Tuple[int, ...]:
        """Masks of the Fourier coefficients the marginal depends on.

        By Theorem 4.1(2) these are exactly the ``beta ⪯ alpha`` (including
        ``beta = 0`` and ``beta = alpha``), so there are ``2**order`` of them.
        """
        return tuple(sorted(iter_submasks(self.mask)))

    def is_dominated_by(self, other: "MarginalQuery") -> bool:
        """``True`` iff this marginal can be computed by aggregating ``other``."""
        if self.dimension != other.dimension:
            raise WorkloadError("cannot compare marginals over different domains")
        return dominated_by(self.mask, other.mask)

    def attribute_names(self, schema: Schema) -> Tuple[str, ...]:
        """Names of the schema attributes whose bit blocks intersect the mask."""
        if schema.total_bits != self.dimension:
            raise WorkloadError("schema does not match the query's dimension")
        return schema.attributes_of_mask(self.mask)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_attributes(cls, schema: Schema, attributes: Iterable[AttributeRef]) -> "MarginalQuery":
        """Build the marginal over a set of (categorical) schema attributes."""
        return cls(mask=schema.mask_of(attributes), dimension=schema.total_bits)

    @classmethod
    def total_query(cls, dimension: int) -> "MarginalQuery":
        """The 0-way marginal: a single cell holding the total tuple count."""
        return cls(mask=0, dimension=dimension)

    @classmethod
    def identity_query(cls, dimension: int) -> "MarginalQuery":
        """The d-way marginal: the full contingency table itself."""
        return cls(mask=(1 << dimension) - 1, dimension=dimension)
