"""Cuboid-lattice utilities shared by the release planner and the serving layer.

A cuboid (marginal) is identified by its attribute bit mask; the lattice order
is mask containment (``beta ⪯ alpha`` iff every bit of ``beta`` is set in
``alpha``).  Two independent subsystems walk this lattice:

* the release :class:`~repro.plan.executor.Executor` materialises many
  strategy marginals at once and wants to compute coarse marginals from
  already-computed finer *ancestors* instead of from the full ``2**d`` count
  vector (:func:`plan_marginal_batches`);
* the serving :class:`~repro.serving.planner.QueryPlanner` answers an ad-hoc
  marginal from the released cuboid with the minimum expected variance
  (:func:`min_variance_source`).

Both used to maintain private copies of the containment scans; this module is
the single implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.utils.bits import dominated_by, hamming_weight

__all__ = [
    "CoveringIndex",
    "MarginalBatch",
    "ancestors_of",
    "covers",
    "min_variance_source",
    "default_batch_bits",
    "plan_marginal_batches",
]


def ancestors_of(mask: int, sources: Iterable[int]) -> List[int]:
    """The sources that dominate ``mask`` (i.e. can answer it exactly)."""
    return [source for source in sources if dominated_by(mask, source)]


def covers(mask: int, sources: Iterable[int]) -> bool:
    """``True`` iff some source dominates ``mask``."""
    return any(dominated_by(mask, source) for source in sources)


def min_variance_source(
    mask: int,
    cell_variances: Mapping[int, float],
    positions: Mapping[int, int],
) -> Optional[Tuple[float, int, int, int]]:
    """Choose the minimum-expected-variance source cuboid for ``mask``.

    Summing a noisy cuboid ``alpha`` down to ``mask`` adds the noise of
    ``2**(||alpha|| - ||mask||)`` cells into every answer cell, so the served
    per-cell variance is ``cell_variances[alpha] * expansion``.  Returns the
    best ``(variance, expansion, source, position)`` tuple — ties broken by
    fewer collapsed cells, then the smaller mask — or ``None`` when no source
    dominates ``mask``.  ``positions`` supplies the workload position carried
    along for the caller.
    """
    order = hamming_weight(mask)
    best: Optional[Tuple[float, int, int, int]] = None
    for source, position in positions.items():
        if not dominated_by(mask, source):
            continue
        expansion = 1 << (hamming_weight(source) - order)
        variance = cell_variances[source] * expansion
        key = (variance, expansion, source, position)
        if best is None or key < best:
            best = key
    return best


_NO_EXCLUDE: FrozenSet[int] = frozenset()


class CoveringIndex:
    """Precomputed containment index over a fixed set of cuboid masks.

    :func:`ancestors_of` / :func:`covers` / :func:`min_variance_source` rescan
    every source mask per query; a serving tier answering hundreds of
    thousands of queries against one release repeats that identical scan each
    time.  This index does the lattice work once: the masks are sorted by
    ``(popcount, mask)`` into contiguous popcount buckets, so a query of
    order ``w`` only scans sources of order ``>= w``, and the containment
    test over that suffix is one vectorised ``query & ~sources == 0`` pass.

    The selection rule is bit-for-bit the one of :func:`min_variance_source`
    (minimum ``(variance, expansion, source, position)`` tuple): variances
    stay float64 in both paths and the lexicographic argmin reproduces the
    Python tuple comparison exactly, so a planner switching to the index
    picks identical sources — including under near-tie variance.

    Parameters
    ----------
    positions:
        Mapping from source mask to its workload position (the planner's
        released-cuboid index).
    cell_variances:
        Optional per-cell variance by source mask; required for
        :meth:`best_source`, unused by the pure containment queries.
    """

    def __init__(
        self,
        positions: Mapping[int, int],
        cell_variances: Optional[Mapping[int, float]] = None,
    ):
        self._positions: Dict[int, int] = dict(positions)
        order = sorted(
            self._positions, key=lambda mask: (hamming_weight(mask), mask)
        )
        self._masks = np.array(order, dtype=np.uint64)
        self._mask_positions = np.array(
            [self._positions[mask] for mask in order], dtype=np.int64
        )
        weights = np.array([hamming_weight(mask) for mask in order], dtype=np.int64)
        self._weights = weights
        # Popcount buckets: bucket_start[w] is the first index of order >= w.
        max_weight = int(weights[-1]) if order else 0
        self._bucket_start = np.searchsorted(
            weights, np.arange(max_weight + 2), side="left"
        )
        self._max_weight = max_weight
        if cell_variances is not None:
            self._variances: Optional[np.ndarray] = np.array(
                [float(cell_variances[mask]) for mask in order], dtype=np.float64
            )
        else:
            self._variances = None

    def __len__(self) -> int:
        return len(self._positions)

    @property
    def masks(self) -> Tuple[int, ...]:
        """The indexed source masks, sorted by ``(popcount, mask)``."""
        return tuple(int(mask) for mask in self._masks)

    # ------------------------------------------------------------------ #
    def _candidates(self, mask: int) -> np.ndarray:
        """Indices (into the sorted arrays) of sources dominating ``mask``."""
        order = hamming_weight(mask)
        if order > self._max_weight:
            return np.empty(0, dtype=np.intp)
        start = int(self._bucket_start[order])
        suffix = self._masks[start:]
        hits = np.flatnonzero((np.uint64(mask) & ~suffix) == 0)
        return hits + start

    def covers(self, mask: int, *, exclude: AbstractSet[int] = _NO_EXCLUDE) -> bool:
        """``True`` iff some (non-excluded) indexed source dominates ``mask``."""
        candidates = self._candidates(mask)
        if not len(candidates):
            return False
        if not exclude:
            return True
        return any(int(self._masks[i]) not in exclude for i in candidates)

    def ancestors(self, mask: int) -> List[int]:
        """Sources dominating ``mask``, in their original ``positions`` order
        (matching :func:`ancestors_of` over the same mapping)."""
        candidates = self._candidates(mask)
        by_position = candidates[np.argsort(self._mask_positions[candidates], kind="stable")]
        return [int(self._masks[i]) for i in by_position]

    def best_source(
        self, mask: int, *, exclude: AbstractSet[int] = _NO_EXCLUDE
    ) -> Optional[Tuple[float, int, int, int]]:
        """Minimum-variance covering source, exactly as
        :func:`min_variance_source` would choose it.

        Returns ``(variance, expansion, source, position)`` or ``None`` when
        nothing (non-excluded) covers ``mask``.  Requires the index to have
        been built with ``cell_variances``.
        """
        if self._variances is None:
            raise ValueError("CoveringIndex was built without cell variances")
        candidates = self._candidates(mask)
        if exclude and len(candidates):
            # Quarantined sources are masked out of the same candidate scan.
            excluded = np.fromiter(exclude, dtype=np.uint64, count=len(exclude))
            candidates = candidates[~np.isin(self._masks[candidates], excluded)]
        if not len(candidates):
            return None
        order = hamming_weight(mask)
        expansions = np.int64(1) << (self._weights[candidates] - order)
        variances = self._variances[candidates] * expansions.astype(np.float64)
        sources = self._masks[candidates]
        positions = self._mask_positions[candidates]
        # Lexicographic argmin over (variance, expansion, source, position) —
        # the same tuple order Python's `<` uses in min_variance_source.
        best = np.lexsort((positions, sources, expansions, variances))[0]
        return (
            float(variances[best]),
            int(expansions[best]),
            int(sources[best]),
            int(positions[best]),
        )


# --------------------------------------------------------------------------- #
# batching marginal computations
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MarginalBatch:
    """One grouped subset-sum pass of the batched marginal kernel.

    The ``root`` marginal (the union of the members' masks) is materialised
    with a single pass over the full count vector; every ``member`` is then
    aggregated from the root's ``2**||root||`` cells instead of from the
    ``2**d`` base cells.
    """

    root: int
    members: Tuple[int, ...]

    @property
    def root_cells(self) -> int:
        """Number of cells of the root marginal."""
        return 1 << hamming_weight(self.root)

    @property
    def is_trivial(self) -> bool:
        """``True`` when the batch is a single mask computed directly."""
        return len(self.members) == 1 and self.members[0] == self.root


def default_batch_bits(d: int, masks: Sequence[int]) -> int:
    """Default cap on the root-union order of a batch.

    The cap trades root passes (``O(2**d)`` each) against member derivations
    (``O(2**cap)`` each): it must exceed the largest requested mask but stay
    well below ``d`` for the derivations to be cheap.  ``d - max(2, d // 4)``
    keeps each derivation at most ``2**-2`` (and asymptotically ``2**(-d/4)``)
    of a full pass.
    """
    widest = max(int(mask).bit_count() for mask in masks)
    return max(widest, d - max(2, d // 4))


def plan_marginal_batches(
    masks: Sequence[int], d: int, *, max_bits: Optional[int] = None
) -> Tuple[MarginalBatch, ...]:
    """Greedily pack marginal masks into shared-ancestor batches.

    Masks are scanned widest-first; each mask joins the first existing batch
    whose root already dominates it (a free ride), else the batch whose root
    union stays within ``max_bits`` and grows the least, else it opens a new
    batch.  Roots only ever gain bits, so earlier members remain dominated.
    The result covers every input mask exactly once and is deterministic in
    the input order.
    """
    if not masks:
        return ()
    if max_bits is None:
        max_bits = default_batch_bits(d, masks)
    max_bits = min(int(max_bits), d)
    roots: List[int] = []
    members: List[List[int]] = []
    # ``int.bit_count`` is ``hamming_weight`` without a Python frame per mask.
    for mask in sorted(map(int, masks), key=int.bit_count, reverse=True):
        placed = False
        for index, root in enumerate(roots):
            if mask & root == mask:
                members[index].append(mask)
                placed = True
                break
        if not placed:
            best_index = -1
            best_bits = max_bits + 1
            for index, root in enumerate(roots):
                bits = (root | mask).bit_count()
                if bits < best_bits:
                    best_bits = bits
                    best_index = index
            if best_index >= 0 and best_bits <= max_bits:
                roots[best_index] |= mask
                members[best_index].append(mask)
                placed = True
        if not placed:
            roots.append(mask)
            members.append([mask])
    return tuple(
        MarginalBatch(root=root, members=tuple(batch))
        for root, batch in zip(roots, members)
    )


def batch_assignment(batches: Sequence[MarginalBatch]) -> Dict[int, int]:
    """Mapping from member mask to the index of the batch that computes it."""
    assignment: Dict[int, int] = {}
    for index, batch in enumerate(batches):
        for member in batch.members:
            assignment.setdefault(member, index)
    return assignment
