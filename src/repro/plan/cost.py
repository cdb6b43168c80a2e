"""Backend-aware costing of the marginal kernel's batches.

The grouped subset-sum kernel has a choice per batch: materialise the batch
**root** once and aggregate every member from its ``2**||root||`` cells, or
answer each member **directly** from the source.  Which is cheaper depends
on the backend — a dense source pays ``O(2**d)`` per direct marginal (the
root amortises it), a record-native source pays ``O(n + 2**k)`` (a huge
root can cost more than all the direct passes), and a sharded source adds
pool dispatch overhead but divides the record passes across workers.

:func:`cost_marginal_batches` prices both options per batch with the
source's own :meth:`~repro.sources.base.CountSource.marginal_costs` /
:meth:`~repro.sources.base.CountSource.derive_costs` estimates and records
the decision as a :class:`BatchCost` on the plan, where the executor honours
it and ``explain`` reports it.  The decision only changes *how* the exact
values are computed, never the values themselves — both paths are
bitwise-identical for integer counts — so plans costed against different
backends still reproduce the same seeded releases.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence, Tuple

import numpy as np

from repro.plan.lattice import MarginalBatch
from repro.sources.base import CountSource

__all__ = ["BatchCost", "cost_marginal_batches"]


@dataclass(frozen=True)
class BatchCost:
    """The costed root-vs-direct decision of one marginal batch.

    Attributes
    ----------
    root:
        The batch's root mask.
    members:
        Number of member marginals the batch computes.
    use_root:
        ``True`` when the executor should materialise the root and derive
        the members from it; ``False`` to answer each member directly.
    root_cost:
        Estimated cost (cells touched) of the root path: one root marginal
        plus one derivation per non-root member.
    direct_cost:
        Estimated cost of answering every member directly.
    backend:
        Backend identifier of the source the estimate was made against.
    """

    root: int
    members: int
    use_root: bool
    root_cost: float
    direct_cost: float
    backend: str

    @property
    def chosen_cost(self) -> float:
        """Estimated cost of the decision actually taken."""
        return self.root_cost if self.use_root else self.direct_cost


def cost_marginal_batches(
    source: CountSource, batches: Sequence[MarginalBatch]
) -> Tuple[BatchCost, ...]:
    """Price every batch against ``source`` and decide root vs direct.

    Trivial batches (one member equal to its root) have identical paths and
    are marked ``use_root``; otherwise the cheaper estimate wins, with ties
    going to the root (the historical behaviour of dense sources).  A root
    the source would refuse to materialise at all
    (:meth:`~repro.sources.base.CountSource.can_materialise`, e.g. wider
    than a record backend's dense limit) or whose vector would not fit the
    source's memory ceiling
    (:meth:`~repro.sources.base.CountSource.max_root_cells`, e.g. budgeted
    out-of-core backends) is never chosen regardless of the estimates.
    """
    ceiling = source.max_root_cells()
    # Every member of every batch priced from one mask array; the sums stay
    # Python sums over each batch's slice, so they add in the same order.
    roots = np.array([batch.root for batch in batches], dtype=np.int64)
    counts = [len(batch.members) for batch in batches]
    members = np.array(
        [member for batch in batches for member in batch.members], dtype=np.int64
    )
    owners = np.repeat(roots, counts)
    direct = source.marginal_costs(members).tolist()
    derive = np.where(
        members == owners, 0.0, source.derive_costs(owners, members)
    ).tolist()
    costs = []
    bounds = [0, *accumulate(counts)]
    for batch, root_cost, start, end in zip(
        batches, source.marginal_costs(roots).tolist(), bounds, bounds[1:]
    ):
        root_cost += sum(derive[start:end])
        direct_cost = float(sum(direct[start:end]))
        oversized = ceiling is not None and batch.root_cells > ceiling
        use_root = batch.is_trivial or (
            not oversized
            and source.can_materialise(batch.root)
            and root_cost <= direct_cost
        )
        costs.append(
            BatchCost(
                root=batch.root,
                members=end - start,
                use_root=use_root,
                root_cost=float(root_cost),
                direct_cost=direct_cost,
                backend=source.backend,
            )
        )
    return tuple(costs)
