"""Cuboid-lattice query planning over a private release.

Once a :class:`~repro.core.result.ReleaseResult` is published, *any* marginal
dominated by a released cuboid — and any point or slice predicate over it —
can be answered by post-processing, at zero additional privacy cost.  The
:class:`QueryPlanner` does the lattice work:

* it indexes the released cuboids by attribute mask;
* for a requested marginal ``beta`` it finds every released ancestor
  ``alpha ⪰ beta`` and picks the one with the **minimum expected variance**.
  Summing a noisy cuboid ``alpha`` down to ``beta`` adds the noise of
  ``2**(||alpha|| - ||beta||)`` cells into every answer cell, so the per-cell
  variance of the served answer is
  ``cell_var(alpha) * 2**(||alpha|| - ||beta||)`` — the finest ancestor is
  *not* automatically the best one when the release used non-uniform
  budgeting;
* it aggregates the chosen cuboid down to the request with one axis-sum over
  a cached ``(2,) * k`` cube view of the source vector (the same vectorised
  reduction as :func:`repro.domain.contingency.marginal_from_cube`) and
  applies point/slice predicates by indexing into the aggregated cube.

Per-cuboid cell variances come from the release's
:class:`~repro.budget.allocation.NoiseAllocation` via the analytic formulas
of :mod:`repro.core.variance`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.result import ReleaseResult
from repro.core.variance import per_query_variances
from repro.domain.contingency import marginal_from_cube
from repro.exceptions import CorruptMarginalError, ReproError, ServingError
from repro.fourier.index import expand_indices, project_indices
from repro.obs.cachestats import CacheStats
from repro.plan.lattice import CoveringIndex
from repro.store.layout import sha256_of_array
from repro.strategies.registry import make_strategy
from repro.utils.bits import bit_indices, dominated_by, hamming_weight, project_index

_NO_EXCLUDE: FrozenSet[int] = frozenset()

#: Resolved plans kept per planner; distinct query *shapes* per release are
#: naturally bounded (sub-lattice of the released cuboids), the cap only
#: guards against adversarial mask traffic.
PLAN_CACHE_ENTRIES = 8192


def released_cell_variances(release: ReleaseResult) -> Dict[int, float]:
    """Expected per-cell noise variance of every released cuboid, by mask.

    The variances are the analytic per-query output variances implied by the
    release's noise allocation (rebuilt from the strategy name), divided by
    the cuboid's cell count.  When the strategy cannot be rebuilt (e.g. an
    explicit matrix strategy that is not in the registry), the release's
    total expected variance is spread uniformly over the released cells —
    every cuboid still gets a finite, comparable figure.  For consistent
    releases the values are upper bounds: the consistency projection can only
    reduce the error on average.
    """
    workload = release.workload
    sizes = np.array([query.size for query in workload.queries], dtype=np.float64)
    try:
        strategy = make_strategy(release.strategy_name, workload)
        strategy.check_allocation(release.allocation)
        totals = per_query_variances(strategy, release.allocation)
    except ReproError:
        per_cell_uniform = release.expected_total_variance / workload.total_cells
        totals = per_cell_uniform * sizes
    per_cell = np.asarray(totals, dtype=np.float64) / sizes
    variances: Dict[int, float] = {}
    for query, value in zip(workload.queries, per_cell):
        # Duplicate masks cannot occur within a workload; keep the first.
        variances.setdefault(query.mask, float(value))
    return variances


def slice_marginal(
    values: np.ndarray, union_mask: int, fixed_mask: int, fixed_bits: int
) -> np.ndarray:
    """Select the cells of a marginal where the ``fixed_mask`` bits are pinned.

    ``values`` is a marginal over ``union_mask`` in compact indexing;
    ``fixed_mask ⪯ union_mask`` names the pinned bits and ``fixed_bits``
    carries their values (at their *domain* positions).  The result is the
    slice over the free bits ``union_mask & ~fixed_mask``, again in compact
    indexing.  Selection does not mix cells, so per-cell variance is
    unchanged.
    """
    if not dominated_by(fixed_mask, union_mask):
        raise ServingError(
            f"predicate bits {fixed_mask:#x} are not contained in the query bits {union_mask:#x}"
        )
    if fixed_bits & ~fixed_mask:
        raise ServingError(
            f"predicate values {fixed_bits:#x} set bits outside the predicate mask {fixed_mask:#x}"
        )
    if fixed_mask == 0:
        return np.asarray(values, dtype=np.float64)
    k = hamming_weight(union_mask)
    cube = np.asarray(values, dtype=np.float64).reshape((2,) * k)
    u_bits = bit_indices(union_mask)
    indexer: List[object] = []
    for axis in range(k):
        # Axis ``a`` of the compact cube corresponds to compact bit ``k-1-a``,
        # i.e. domain bit ``u_bits[k-1-a]`` (see marginal_from_vector).
        bit = u_bits[k - 1 - axis]
        if (fixed_mask >> bit) & 1:
            indexer.append((fixed_bits >> bit) & 1)
        else:
            indexer.append(slice(None))
    return cube[tuple(indexer)].reshape(-1)


def slice_marginal_batch(
    values: np.ndarray, union_mask: int, fixed_mask: int, fixed_bits: Sequence[int]
) -> np.ndarray:
    """Vectorised :func:`slice_marginal` over many predicate values at once.

    All queries share the aggregated marginal ``values`` (over ``union_mask``)
    and the predicate bit set ``fixed_mask``; ``fixed_bits`` carries one
    pinned-value pattern per query.  Returns an ``(n, 2**f)`` array whose row
    ``i`` is bitwise identical to
    ``slice_marginal(values, union_mask, fixed_mask, fixed_bits[i])`` — the
    whole group is answered with ONE fancy-indexed gather instead of ``n``
    cube reshapes, which is what makes grouped batch serving fast.

    The row layout follows from the compact indexing contract: output bit
    ``i`` of a sliced answer is the ``i``-th smallest free bit of the union,
    so row indices are ``expand(j over free compact bits) | compact(fixed)``.
    """
    if not dominated_by(fixed_mask, union_mask):
        raise ServingError(
            f"predicate bits {fixed_mask:#x} are not contained in the query bits {union_mask:#x}"
        )
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    bits = np.asarray(list(fixed_bits), dtype=np.int64)
    if np.any(bits & ~np.int64(fixed_mask)):
        raise ServingError(
            f"predicate values set bits outside the predicate mask {fixed_mask:#x}"
        )
    if fixed_mask == 0:
        return np.broadcast_to(flat, (len(bits), flat.shape[0]))
    template = _slice_template(union_mask, fixed_mask)
    fixed_compact = project_indices(bits, union_mask)
    return flat[fixed_compact[:, None] | template[None, :]]


@lru_cache(maxsize=4096)
def _slice_template(union_mask: int, fixed_mask: int) -> np.ndarray:
    """Free-bit row template of one predicate shape, cached across batches.

    The template depends only on ``(union_mask, fixed_mask)`` — every batch
    group with the same predicate shape reuses it, skipping the per-call
    ``project_index`` bit walk and ``expand_indices`` allocation.
    """
    free_compact = project_index(union_mask & ~fixed_mask, union_mask)
    f = hamming_weight(free_compact)
    template = expand_indices(np.arange(1 << f, dtype=np.int64), free_compact)
    template.setflags(write=False)
    return template


@dataclass(frozen=True)
class QueryPlan:
    """How one marginal query will be answered from the released cuboids.

    Attributes
    ----------
    union_mask:
        The marginal actually aggregated: query bits plus predicate bits.
    source_mask / source_position:
        The chosen released cuboid (mask and its position in the workload).
    expansion:
        ``2**(||source|| - ||union||)`` — how many source cells collapse into
        each answer cell.
    per_cell_variance:
        Expected noise variance of each served cell
        (``source cell variance * expansion``).
    degraded:
        ``True`` when the exclusion of quarantined cuboids changed the chosen
        source — the answer comes from a fallback source with wider error
        bars than the healthy release would have produced.  A quarantined
        cuboid that dominates the query but was not its optimum does not
        degrade the answer.
    """

    union_mask: int
    source_mask: int
    source_position: int
    expansion: int
    per_cell_variance: float
    degraded: bool = False


@dataclass(frozen=True, eq=False)
class ServedAnswer:
    """A served query answer with its provenance and expected error.

    ``values`` is the answer vector in the compact indexing of the free
    (non-predicated) query bits; ``per_cell_variance`` and ``std_error``
    quantify the noise the release injected into each cell.  Serving is pure
    post-processing, so no privacy budget is attached — the release already
    paid for everything.  Equality is identity (``eq=False``): the ndarray
    field would make a generated ``__eq__``/``__hash__`` raise.
    """

    values: np.ndarray
    query_mask: int
    fixed_mask: int
    fixed_bits: int
    plan: QueryPlan
    release_id: Optional[str] = None
    cached: bool = False

    @property
    def per_cell_variance(self) -> float:
        """Expected noise variance of each served cell."""
        return self.plan.per_cell_variance

    @property
    def std_error(self) -> float:
        """One-sigma error bar of each served cell."""
        return float(np.sqrt(self.plan.per_cell_variance))

    @property
    def is_point(self) -> bool:
        """``True`` iff the answer is a single cell."""
        return self.values.shape == (1,)

    @property
    def degraded(self) -> bool:
        """``True`` when a quarantined cuboid forced a fallback source."""
        return self.plan.degraded

    def with_provenance(self, *, release_id: Optional[str] = None, cached: bool = False):
        """Copy with serving metadata filled in (used by the service layer)."""
        return replace(self, release_id=release_id, cached=cached)


class QueryPlanner:
    """Answer arbitrary sub-marginal / point / slice queries from one release.

    Parameters
    ----------
    release:
        The released workload answers to serve from.
    marginal_digests:
        Optional sha256 content digests of the released vectors, in workload
        order (``ReleaseStore.marginal_digests``).  When given, each source
        cuboid is verified against its digest the first time a query touches
        it; a mismatch raises :class:`~repro.exceptions.CorruptMarginalError`
        so the service can quarantine that cuboid and re-plan around it.
    """

    def __init__(
        self,
        release: ReleaseResult,
        *,
        marginal_digests: Optional[Sequence[str]] = None,
    ):
        self._release = release
        self._positions: Dict[int, int] = {}
        for position, query in enumerate(release.workload.queries):
            self._positions.setdefault(query.mask, position)
        # Aggregate fast path: per-source (2,) * k cube views of the released
        # vectors, built lazily (shared memory, so caching is always safe).
        self._cubes: Dict[int, np.ndarray] = {}
        self._compact_unions: Dict[Tuple[int, int], int] = {}
        self._digests = (
            tuple(str(digest) for digest in marginal_digests)
            if marginal_digests is not None
            else None
        )
        if self._digests is not None and len(self._digests) != len(release.marginals):
            raise ServingError(
                f"{len(self._digests)} marginal digests for "
                f"{len(release.marginals)} released vectors"
            )
        self._verified: Set[int] = set()
        # Containment queries (covers / covering_masks / plan) run against a
        # precomputed popcount-bucketed index instead of rescanning every
        # released mask, and resolved plans are memoised by query shape.
        self._index = CoveringIndex(self._positions, released_cell_variances(release))
        self._plan_cache: "OrderedDict[Tuple[int, FrozenSet[int]], QueryPlan]" = OrderedDict()
        # Batch groups aggregate on pool threads and the HTTP tier calls
        # query_batch from several executor threads at once; the LRU
        # move_to_end/popitem pair is not atomic, hence the lock.
        self._plan_lock = threading.Lock()
        self._plan_stats = CacheStats(metric_prefix="serving.plan_cache")

    # ------------------------------------------------------------------ #
    @property
    def release(self) -> ReleaseResult:
        """The release this planner serves."""
        return self._release

    def covering_masks(self, mask: int) -> List[int]:
        """Released cuboids that dominate ``mask`` (can answer it exactly)."""
        return self._index.ancestors(mask)

    def covers(self, mask: int, *, exclude: AbstractSet[int] = _NO_EXCLUDE) -> bool:
        """``True`` iff some (non-quarantined) released cuboid answers ``mask``."""
        return self._index.covers(mask, exclude=exclude)

    @property
    def plan_stats(self) -> CacheStats:
        """Hit/miss counters of the resolved-plan memo."""
        return self._plan_stats

    # ------------------------------------------------------------------ #
    def plan(
        self, union_mask: int, *, exclude: AbstractSet[int] = _NO_EXCLUDE
    ) -> QueryPlan:
        """Choose the minimum-expected-variance source for ``union_mask``.

        Source selection (and its deterministic tie-break: fewer collapsed
        cells, then the smaller mask) runs on the precomputed
        :class:`~repro.plan.lattice.CoveringIndex`, which reproduces the
        scalar :func:`repro.plan.lattice.min_variance_source` scan exactly —
        same covering choice under near-tie variance.  Resolved plans are
        memoised by ``(union mask, quarantine set)``: repeated query shapes
        (same columns, different predicate values) skip planning entirely.
        ``exclude`` removes quarantined cuboids from consideration; when that
        changes the chosen source, the plan is flagged ``degraded`` — the
        fallback carries wider error bars than the healthy release would.
        """
        exclude_key = exclude if isinstance(exclude, frozenset) else frozenset(exclude)
        cache_key = (union_mask, exclude_key)
        with self._plan_lock:
            cached = self._plan_cache.get(cache_key)
            if cached is not None:
                self._plan_cache.move_to_end(cache_key)
                self._plan_stats.record_hit()
                return cached
        self._plan_stats.record_miss()
        domain_mask = self._release.workload.schema.full_mask
        if union_mask < 0 or union_mask > domain_mask:
            raise ServingError(
                f"query mask {union_mask:#x} is outside the release's "
                f"{self._release.workload.dimension}-bit domain"
            )
        best = self._index.best_source(union_mask, exclude=exclude_key)
        if best is None:
            quarantined = (
                f" ({len(exclude)} cuboid(s) quarantined)" if exclude else ""
            )
            available = [hex(m) for m in self._positions if m not in exclude_key]
            raise ServingError(
                f"no released cuboid covers marginal {union_mask:#x}{quarantined}; "
                f"released masks: {available}"
            )
        variance, expansion, source, position = best
        degraded = bool(exclude_key) and (
            self._index.best_source(union_mask)[3] != position  # type: ignore[index]
        )
        plan = QueryPlan(
            union_mask=union_mask,
            source_mask=source,
            source_position=position,
            expansion=expansion,
            per_cell_variance=variance,
            degraded=degraded,
        )
        with self._plan_lock:
            self._plan_cache[cache_key] = plan
            if len(self._plan_cache) > PLAN_CACHE_ENTRIES:
                self._plan_cache.popitem(last=False)
                self._plan_stats.record_eviction()
        return plan

    def aggregate(self, plan: QueryPlan) -> np.ndarray:
        """Aggregate the plan's source cuboid down to its union marginal.

        The reduction runs on a cached cube view of the source vector: the
        union marginal is one axis-sum over the compact projection of the
        union bits (the same reduction the batched plan executor uses), so
        repeated queries against one cuboid skip the per-call reshape and
        dtype validation of the generic ``submarginal`` helper.
        """
        if not dominated_by(plan.union_mask, plan.source_mask):
            raise ServingError(
                f"marginal {plan.union_mask:#x} is not dominated by source "
                f"cuboid {plan.source_mask:#x}"
            )
        cube = self._cubes.get(plan.source_position)
        if cube is None:
            source_values = np.asarray(
                self._release.marginals[plan.source_position], dtype=np.float64
            )
            self._verify_source(plan.source_position, plan.source_mask, source_values)
            k = hamming_weight(plan.source_mask)
            cube = source_values.reshape((2,) * k)
            self._cubes[plan.source_position] = cube
        key = (plan.union_mask, plan.source_mask)
        compact_union = self._compact_unions.get(key)
        if compact_union is None:
            compact_union = project_index(plan.union_mask, plan.source_mask)
            self._compact_unions[key] = compact_union
        return marginal_from_cube(cube, compact_union, cube.ndim)

    def _verify_source(
        self, position: int, source_mask: int, values: np.ndarray
    ) -> None:
        """Digest-check one source vector the first time a query touches it.

        Verification is lazy and once-per-source: cold queries pay one hash
        over the vector they aggregate anyway, and cuboids nothing reads are
        never hashed.  A mismatch is a targeted
        :class:`~repro.exceptions.CorruptMarginalError` carrying the cuboid
        mask, so the service can quarantine it and re-plan.
        """
        if self._digests is None or position in self._verified:
            return
        actual = sha256_of_array(values)
        expected = self._digests[position]
        if actual != expected:
            raise CorruptMarginalError(
                f"released cuboid {source_mask:#x} fails its integrity check: "
                f"stored digest {expected[:12]}..., vector hashes to "
                f"{actual[:12]}... — the stored marginal was corrupted after "
                "release",
                mask=source_mask,
            )
        self._verified.add(position)

    def answer(
        self,
        query_mask: int,
        *,
        fixed_mask: int = 0,
        fixed_bits: int = 0,
        exclude: AbstractSet[int] = _NO_EXCLUDE,
    ) -> ServedAnswer:
        """Serve the marginal ``query_mask``, optionally with a predicate.

        ``fixed_mask``/``fixed_bits`` pin a disjoint set of bits to fixed
        values (a slice; a point query when ``query_mask == 0``).  The
        aggregation runs over the union of query and predicate bits, then the
        predicate selects the matching cells.  ``exclude`` skips quarantined
        source cuboids (see :meth:`plan`).
        """
        if fixed_mask & query_mask:
            raise ServingError(
                f"predicate bits {fixed_mask:#x} overlap the queried bits {query_mask:#x}"
            )
        union_mask = query_mask | fixed_mask
        plan = self.plan(union_mask, exclude=exclude)
        aggregated = self.aggregate(plan)
        if fixed_mask:
            # Copy: the slice is a view that would otherwise keep the whole
            # aggregated cuboid alive for as long as the answer is cached.
            values = slice_marginal(aggregated, union_mask, fixed_mask, fixed_bits).copy()
        else:
            values = aggregated
        values.setflags(write=False)
        return ServedAnswer(
            values=values,
            query_mask=query_mask,
            fixed_mask=fixed_mask,
            fixed_bits=fixed_bits,
            plan=plan,
        )
