"""Strategies whose rows are the cells of a collection of marginals.

This covers two important cases from the paper:

* ``S = Q`` — add noise to each requested marginal independently
  (:func:`query_strategy`);
* an arbitrary covering set of "strategy marginals", each of which is
  measured once and aggregated down to the requested marginals it dominates —
  the form produced by the clustering strategy of Ding et al. [6]
  (:class:`repro.strategies.clustering.ClusteringStrategy` builds on this
  class).

The rows of one strategy marginal form one group (Definition 3.1) with
constant ``C_r = 1``: every base cell of the domain falls into exactly one
cell of each marginal.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.budget.grouping import GroupTable
from repro.domain.contingency import marginal_from_vector
from repro.exceptions import WorkloadError
from repro.queries.workload import MarginalWorkload
from repro.strategies.base import Measurement, Strategy
from repro.utils.bits import dominated_by, hamming_weight, project_index


def _group_label(mask: int) -> str:
    return f"marginal-{mask:#x}"


def submarginal(values: np.ndarray, super_mask: int, sub_mask: int) -> np.ndarray:
    """Aggregate a marginal over ``super_mask`` down to one over ``sub_mask``.

    ``values`` is indexed by the compact cell index of ``super_mask``; the
    result is indexed by the compact cell index of ``sub_mask`` (which must be
    dominated by ``super_mask``).
    """
    if not dominated_by(sub_mask, super_mask):
        raise WorkloadError(
            f"marginal {sub_mask:#x} is not dominated by strategy marginal {super_mask:#x}"
        )
    k = hamming_weight(super_mask)
    compact_sub = project_index(sub_mask, super_mask)
    return marginal_from_vector(np.asarray(values, dtype=np.float64), compact_sub, k)


class MarginalSetStrategy(Strategy):
    """Measure a fixed set of marginals and aggregate them to the workload.

    Parameters
    ----------
    workload:
        The marginal workload to answer.
    strategy_masks:
        Masks of the marginals that are actually measured.  Every workload
        query must be dominated by at least one of them.
    name:
        Strategy identifier (``"Q"`` for the ``S = Q`` special case,
        ``"C"`` when driven by the clustering algorithm, ...).
    assignment:
        Optional explicit mapping ``{query mask: strategy mask}``.  By default
        each query is assigned to the *smallest* strategy marginal dominating
        it, which minimises the amount of aggregated noise.
    """

    def __init__(
        self,
        workload: MarginalWorkload,
        strategy_masks: Sequence[int],
        *,
        name: str = "M",
        assignment: Optional[Dict[int, int]] = None,
    ):
        super().__init__(workload, name=name)
        masks = list(dict.fromkeys(int(mask) for mask in strategy_masks))
        domain = workload.domain_size
        for mask in masks:
            if not (0 <= mask < domain):
                raise WorkloadError(
                    f"strategy mask {mask:#x} outside the workload's {workload.dimension}-bit domain"
                )
        if not masks:
            raise WorkloadError("a marginal-set strategy needs at least one strategy marginal")
        self._strategy_masks = tuple(masks)
        self._labels = {mask: _group_label(mask) for mask in masks}
        self._assignment = self._build_assignment(assignment)
        position = {mask: index for index, mask in enumerate(masks)}
        # Strategy-marginal position of every query, in workload order: the
        # group weights are one bincount over it.
        self._assigned_positions = np.array(
            [position[self._assignment[query.mask]] for query in workload.queries],
            dtype=np.int64,
        )
        # int.bit_count, not popcount_array: as fast on a few hundred masks,
        # and it takes masks past int64 (wider schemas can still be planned).
        self._sizes = np.array([1 << mask.bit_count() for mask in masks], dtype=np.int64)

    # ------------------------------------------------------------------ #
    def _build_assignment(self, explicit: Optional[Dict[int, int]]) -> Dict[int, int]:
        assignment: Dict[int, int] = {}
        for query in self._workload.queries:
            if explicit is not None and query.mask in explicit:
                target = int(explicit[query.mask])
                if target not in self._labels:
                    raise WorkloadError(
                        f"query {query.mask:#x} assigned to {target:#x}, which is not a "
                        "strategy marginal"
                    )
                if query.mask & target != query.mask:
                    raise WorkloadError(
                        f"query {query.mask:#x} is not dominated by its assigned strategy "
                        f"marginal {target:#x}"
                    )
                assignment[query.mask] = target
                continue
            candidates = [
                mask for mask in self._strategy_masks if dominated_by(query.mask, mask)
            ]
            if not candidates:
                raise WorkloadError(
                    f"no strategy marginal dominates query {query.mask:#x}; the strategy "
                    "set does not cover the workload"
                )
            assignment[query.mask] = min(candidates, key=hamming_weight)
        return assignment

    # ------------------------------------------------------------------ #
    @property
    def strategy_masks(self) -> Sequence[int]:
        """Masks of the measured strategy marginals (duplicates removed)."""
        return self._strategy_masks

    @property
    def assignment(self) -> Dict[int, int]:
        """Mapping from query mask to the strategy marginal it is answered from."""
        return dict(self._assignment)

    def group_table(self, a: Optional[Sequence[float]] = None) -> GroupTable:
        weights = self.resolve_query_weights(a)
        # bincount adds each bin's weights in workload order, starting from
        # 0.0: the same float sums as accumulating query by query.
        assigned_weight = np.bincount(
            self._assigned_positions, weights=weights, minlength=len(self._strategy_masks)
        )
        return GroupTable(
            self._labels.values(),
            self._sizes,
            np.ones(len(self._sizes)),
            # Each strategy cell feeds exactly one cell of every assigned
            # query with coefficient 1.
            self._sizes * assigned_weight,
            masks=self._strategy_masks,
        )

    def estimate(self, measurement: Measurement) -> List[np.ndarray]:
        noisy = measurement.flat
        offsets = self.default_group_table().offsets.tolist()
        estimates = []
        for query, position in zip(self._workload.queries, self._assigned_positions.tolist()):
            values = noisy[offsets[position] : offsets[position + 1]]
            source_mask = self._strategy_masks[position]
            if source_mask == query.mask:
                estimates.append(values.copy())
            else:
                estimates.append(submarginal(values, source_mask, query.mask))
        return estimates


def query_strategy(workload: MarginalWorkload, *, name: str = "Q") -> MarginalSetStrategy:
    """The ``S = Q`` strategy: measure every requested marginal directly."""
    assignment = {query.mask: query.mask for query in workload.queries}
    return MarginalSetStrategy(
        workload, [query.mask for query in workload.queries], name=name, assignment=assignment
    )
