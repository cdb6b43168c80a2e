"""Marginal query workloads and the workload families used in the paper.

The experimental section of the paper evaluates three workload families over
the (categorical) attributes of a schema:

* ``Q_k``   — all k-way marginal tables (:func:`all_k_way`);
* ``Q*_k``  — all k-way marginals plus half of the (k+1)-way marginals
  (:func:`star_workload`);
* ``Q^a_k`` — all k-way marginals plus every (k+1)-way marginal that contains
  a fixed "anchor" attribute (:func:`anchored_workload`).

A :class:`MarginalWorkload` is an ordered collection of
:class:`~repro.queries.marginal.MarginalQuery` objects over a shared schema.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.domain.contingency import ContingencyTable
from repro.domain.schema import AttributeRef, Schema
from repro.exceptions import WorkloadError
from repro.queries.marginal import MarginalQuery
from repro.utils.bits import hamming_weight, iter_submasks
from repro.utils.rng import RngLike, ensure_rng


class MarginalWorkload:
    """An ordered set of marginal queries over a common schema.

    Parameters
    ----------
    schema:
        The schema the queries are asked over.
    queries:
        The marginal queries; duplicates (same mask) are collapsed, keeping
        the first occurrence's position.
    name:
        Optional label used in reports (e.g. ``"Q2*"``).
    """

    def __init__(
        self,
        schema: Schema,
        queries: Iterable[MarginalQuery],
        *,
        name: Optional[str] = None,
    ):
        query_list: List[MarginalQuery] = []
        seen = set()
        for query in queries:
            if query.dimension != schema.total_bits:
                raise WorkloadError(
                    f"query over {query.dimension} bits does not match schema with "
                    f"{schema.total_bits} bits"
                )
            if query.mask in seen:
                continue
            seen.add(query.mask)
            query_list.append(query)
        if not query_list:
            raise WorkloadError("a workload must contain at least one query")
        self._schema = schema
        self._queries: Tuple[MarginalQuery, ...] = tuple(query_list)
        self._name = name or "workload"
        self._offsets: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # basic container behaviour
    # ------------------------------------------------------------------ #
    @property
    def schema(self) -> Schema:
        """The schema of the workload."""
        return self._schema

    @property
    def queries(self) -> Tuple[MarginalQuery, ...]:
        """The queries, in order."""
        return self._queries

    @property
    def name(self) -> str:
        """Human-readable workload name."""
        return self._name

    @property
    def dimension(self) -> int:
        """Number of binary attributes ``d`` of the underlying domain."""
        return self._schema.total_bits

    @property
    def domain_size(self) -> int:
        """Size ``N = 2**d`` of the underlying domain."""
        return self._schema.domain_size

    def __len__(self) -> int:
        return len(self._queries)

    def __iter__(self) -> Iterator[MarginalQuery]:
        return iter(self._queries)

    def __getitem__(self, index: int) -> MarginalQuery:
        return self._queries[index]

    def __repr__(self) -> str:
        return (
            f"MarginalWorkload({self._name!r}, queries={len(self)}, "
            f"cells={self.total_cells}, d={self.dimension})"
        )

    # ------------------------------------------------------------------ #
    # derived quantities
    # ------------------------------------------------------------------ #
    @property
    def masks(self) -> Tuple[int, ...]:
        """Bit masks of the queries, in order."""
        return tuple(query.mask for query in self._queries)

    @property
    def orders(self) -> Tuple[int, ...]:
        """Marginal orders ``||alpha||`` of the queries, in order."""
        return tuple(query.order for query in self._queries)

    @property
    def total_cells(self) -> int:
        """Total number of released cells ``K = sum_i 2**||alpha_i||``."""
        return int(self.offsets[-1])

    @property
    def offsets(self) -> np.ndarray:
        """Cell offsets of the flat answer layout: query ``i`` spans
        ``offsets[i]:offsets[i + 1]`` (read-only, computed once)."""
        if self._offsets is None:
            offsets = np.zeros(len(self._queries) + 1, dtype=np.int64)
            np.cumsum([query.size for query in self._queries], out=offsets[1:])
            offsets.setflags(write=False)
            self._offsets = offsets
        return self._offsets

    @property
    def sizes(self) -> np.ndarray:
        """Cells ``2**||alpha_i||`` of every query, in order."""
        return np.diff(self.offsets)

    @property
    def max_order(self) -> int:
        """Largest marginal order in the workload."""
        return max(self.orders)

    def fourier_masks(self) -> Tuple[int, ...]:
        """All Fourier coefficients the workload depends on.

        This is the set ``F = { beta : beta ⪯ alpha_i for some i }`` of
        Section 4.3, returned as a sorted tuple of masks.  Its size ``|F|``
        (written ``m`` in the paper) bounds the number of variables of the
        fast consistency step and the number of rows of the Fourier strategy.
        """
        coefficients = set()
        for query in self._queries:
            coefficients.update(iter_submasks(query.mask))
        return tuple(sorted(coefficients))

    # ------------------------------------------------------------------ #
    # evaluation
    # ------------------------------------------------------------------ #
    def true_answers(self, table: Union[ContingencyTable, np.ndarray]) -> List[np.ndarray]:
        """Exact answers of every query on ``table`` (list of marginal vectors)."""
        if isinstance(table, ContingencyTable):
            return [query.evaluate_table(table) for query in self._queries]
        x = np.asarray(table, dtype=np.float64)
        return [query.evaluate(x) for query in self._queries]

    def true_answers_flat(self, table: Union[ContingencyTable, np.ndarray]) -> np.ndarray:
        """Exact answers concatenated into a single vector of length ``total_cells``."""
        return np.concatenate(self.true_answers(table))

    def split_flat(self, flat: np.ndarray) -> List[np.ndarray]:
        """Split a flat vector of length ``total_cells`` back into per-query vectors."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (self.total_cells,):
            raise WorkloadError(
                f"expected a flat answer vector of length {self.total_cells}, "
                f"got shape {flat.shape}"
            )
        return [answer.copy() for answer in self.split_views(flat)]

    def split_views(self, flat: np.ndarray) -> List[np.ndarray]:
        """Per-query views of a flat vector of length ``total_cells`` (no
        copies, no validation; see :meth:`split_flat` for both)."""
        bounds = self.offsets.tolist()
        return [flat[start:end] for start, end in zip(bounds, bounds[1:])]

    # ------------------------------------------------------------------ #
    # composition
    # ------------------------------------------------------------------ #
    def union(self, other: "MarginalWorkload", *, name: Optional[str] = None) -> "MarginalWorkload":
        """Union of two workloads over the same schema (duplicates collapsed)."""
        if other.schema != self._schema:
            raise WorkloadError("cannot union workloads over different schemas")
        return MarginalWorkload(
            self._schema, list(self._queries) + list(other._queries), name=name
        )

    def restrict_to_orders(self, orders: Iterable[int], *, name: Optional[str] = None) -> "MarginalWorkload":
        """Keep only queries whose marginal order lies in ``orders``."""
        wanted = set(orders)
        kept = [query for query in self._queries if query.order in wanted]
        if not kept:
            raise WorkloadError(f"no queries of orders {sorted(wanted)} in this workload")
        return MarginalWorkload(self._schema, kept, name=name or self._name)

    def queries_by_mask(self) -> Dict[int, MarginalQuery]:
        """Mapping from mask to query (masks are unique within a workload)."""
        return {query.mask: query for query in self._queries}

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description (inverse of :meth:`from_dict`).

        The schema is *not* embedded; callers that persist a workload store
        the schema alongside (see :meth:`from_dict`).
        """
        return {"name": self._name, "masks": [query.mask for query in self._queries]}

    @classmethod
    def from_dict(cls, schema: Schema, payload: Dict[str, object]) -> "MarginalWorkload":
        """Rebuild a workload over ``schema`` from :meth:`to_dict` output."""
        queries = [
            MarginalQuery(mask=int(mask), dimension=schema.total_bits)
            for mask in payload["masks"]  # type: ignore[union-attr]
        ]
        name = payload.get("name")  # type: ignore[union-attr]
        return cls(schema, queries, name=str(name) if name is not None else None)


# ---------------------------------------------------------------------- #
# Workload family constructors (Section 5 of the paper)
# ---------------------------------------------------------------------- #
def _attribute_combinations(schema: Schema, k: int) -> Iterator[Tuple[str, ...]]:
    names = schema.names
    if k < 0 or k > len(names):
        return iter(())
    return combinations(names, k)


def all_k_way(schema: Schema, k: int, *, name: Optional[str] = None) -> MarginalWorkload:
    """``Q_k``: all k-way marginal tables over the schema's attributes."""
    if not (1 <= k <= len(schema)):
        raise WorkloadError(
            f"k must lie in [1, {len(schema)}] for this schema, got {k}"
        )
    queries = [
        MarginalQuery.from_attributes(schema, attrs)
        for attrs in _attribute_combinations(schema, k)
    ]
    return MarginalWorkload(schema, queries, name=name or f"Q{k}")


def star_workload(
    schema: Schema,
    k: int,
    *,
    fraction: float = 0.5,
    rng: RngLike = None,
    name: Optional[str] = None,
) -> MarginalWorkload:
    """``Q*_k``: all k-way marginals plus a fraction of the (k+1)-way marginals.

    The paper uses half of the (k+1)-way marginals.  The subset is chosen
    uniformly at random when ``rng`` is given, and deterministically (the
    first half in lexicographic attribute order) otherwise, so experiments
    are reproducible by default.
    """
    if not (1 <= k < len(schema)):
        raise WorkloadError(
            f"k must lie in [1, {len(schema) - 1}] for this schema, got {k}"
        )
    if not (0.0 <= fraction <= 1.0):
        raise WorkloadError(f"fraction must lie in [0, 1], got {fraction}")
    base = all_k_way(schema, k)
    higher = list(_attribute_combinations(schema, k + 1))
    count = int(round(fraction * len(higher)))
    if rng is not None:
        generator = ensure_rng(rng)
        chosen_positions = sorted(
            generator.choice(len(higher), size=count, replace=False).tolist()
        )
        chosen = [higher[i] for i in chosen_positions]
    else:
        chosen = higher[:count]
    extra = [MarginalQuery.from_attributes(schema, attrs) for attrs in chosen]
    return MarginalWorkload(
        schema, list(base.queries) + extra, name=name or f"Q{k}*"
    )


def anchored_workload(
    schema: Schema,
    k: int,
    anchor: AttributeRef,
    *,
    name: Optional[str] = None,
) -> MarginalWorkload:
    """``Q^a_k``: all k-way marginals plus all (k+1)-way marginals containing
    the ``anchor`` attribute."""
    if not (1 <= k < len(schema)):
        raise WorkloadError(
            f"k must lie in [1, {len(schema) - 1}] for this schema, got {k}"
        )
    anchor_name = schema.attribute(anchor).name
    base = all_k_way(schema, k)
    extra = [
        MarginalQuery.from_attributes(schema, attrs)
        for attrs in _attribute_combinations(schema, k + 1)
        if anchor_name in attrs
    ]
    return MarginalWorkload(
        schema, list(base.queries) + extra, name=name or f"Q{k}a"
    )


def datacube_workload(
    schema: Schema,
    *,
    max_order: Optional[int] = None,
    include_total: bool = False,
    name: Optional[str] = None,
) -> MarginalWorkload:
    """The (truncated) datacube: every marginal over up to ``max_order`` attributes.

    With ``max_order=None`` the full datacube over all attribute subsets is
    produced (this grows as ``2**len(schema)`` — use with care).
    """
    limit = len(schema) if max_order is None else max_order
    if not (1 <= limit <= len(schema)):
        raise WorkloadError(f"max_order must lie in [1, {len(schema)}], got {max_order}")
    queries: List[MarginalQuery] = []
    if include_total:
        queries.append(MarginalQuery.total_query(schema.total_bits))
    for k in range(1, limit + 1):
        queries.extend(
            MarginalQuery.from_attributes(schema, attrs)
            for attrs in _attribute_combinations(schema, k)
        )
    return MarginalWorkload(schema, queries, name=name or f"datacube<= {limit}")


def paper_workloads(
    schema: Schema,
    *,
    ks: Sequence[int] = (1, 2),
    anchor: Optional[AttributeRef] = None,
    rng: RngLike = None,
) -> Dict[str, MarginalWorkload]:
    """Build the six workloads used in the paper's experiments.

    Returns ``{"Q1": ..., "Q1*": ..., "Q1a": ..., "Q2": ..., "Q2*": ..., "Q2a": ...}``
    (for the default ``ks=(1, 2)``).  ``anchor`` defaults to the first attribute.
    """
    anchor_ref = schema.names[0] if anchor is None else anchor
    workloads: Dict[str, MarginalWorkload] = {}
    for k in ks:
        workloads[f"Q{k}"] = all_k_way(schema, k)
        workloads[f"Q{k}*"] = star_workload(schema, k, rng=rng)
        workloads[f"Q{k}a"] = anchored_workload(schema, k, anchor_ref)
    return workloads
