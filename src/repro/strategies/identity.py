"""The identity strategy ``S = I``: noisy base counts.

Every cell of the full contingency table is released with (the same) noise
and marginals are obtained by aggregating the noisy cells.  All rows of ``I``
form a single group with constant ``C = 1``, so the uniform allocation is
always optimal for this strategy (as the paper notes); the answers are
automatically consistent because they are all computed from one noisy table.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.budget.grouping import GroupTable
from repro.domain.contingency import marginal_from_vector
from repro.queries.workload import MarginalWorkload
from repro.strategies.base import Measurement, Strategy

_GROUP_LABEL = "base-counts"


class IdentityStrategy(Strategy):
    """Release noisy base counts and aggregate them into the marginals."""

    inherently_consistent = True

    def __init__(self, workload: MarginalWorkload, *, name: str = "I"):
        super().__init__(workload, name=name)

    # ------------------------------------------------------------------ #
    def group_table(self, a: Optional[Sequence[float]] = None) -> GroupTable:
        weights = self.resolve_query_weights(a)
        # Each base cell contributes (with coefficient 1) to exactly one cell
        # of every query, so its recovery weight is sum_q a_q and the group
        # weight is N times that.  The one group is the full-domain cuboid.
        size = self._workload.domain_size
        return GroupTable(
            (_GROUP_LABEL,),
            (size,),
            (1.0,),
            (float(size * weights.sum()),),
            masks=(size - 1,),
        )

    def estimate(self, measurement: Measurement) -> List[np.ndarray]:
        noisy_counts = measurement.group_values(_GROUP_LABEL)
        d = self.dimension
        return [
            marginal_from_vector(noisy_counts, query.mask, d)
            for query in self._workload.queries
        ]
