"""The strategy interface and measurement container.

A :class:`Strategy` encapsulates the first two steps of the paper's
framework for a fixed marginal workload ``Q``:

1. it describes the *group structure* of its strategy matrix ``S``
   (Definition 3.1) as a :class:`~repro.budget.grouping.GroupTable`
   (:meth:`Strategy.group_table`), which is all the budget allocator needs;
2. it *measures* the strategy queries on a count vector with the noise
   dictated by a :class:`~repro.budget.allocation.NoiseAllocation`
   (:meth:`Strategy.measure`);
3. it *estimates* the workload answers from the noisy measurement
   (:meth:`Strategy.estimate`) — this is the initial recovery ``R`` the
   strategy is defined with; an optional consistency step
   (:mod:`repro.recovery.consistency`) can be applied afterwards.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.budget.allocation import NoiseAllocation
from repro.budget.grouping import GroupSpec, GroupTable
from repro.exceptions import BudgetError, WorkloadError
from repro.queries.workload import MarginalWorkload
from repro.utils.rng import RngLike


class Measurement:
    """Noisy answers to a strategy's queries.

    Attributes
    ----------
    strategy_name:
        Name of the strategy that produced the measurement.
    allocation:
        The noise allocation used, including the privacy budget.
    flat:
        The noisy cells of every group in one vector, in group order: group
        ``r`` sits at ``allocation.table.offsets[r]:offsets[r + 1]`` (the
        matrix kernel keeps its strategy rows in matrix order).  The meaning
        of the cells is strategy-specific (marginal cells, Fourier
        coefficients, base counts, ...); only the owning strategy interprets
        them.  A measurement may instead be given as ``values`` keyed by
        group label, which are concatenated once in group order.
    """

    def __init__(
        self,
        strategy_name: str,
        allocation: NoiseAllocation,
        values: Optional[Dict[str, np.ndarray]] = None,
        *,
        flat: Optional[np.ndarray] = None,
    ):
        table = allocation.table
        if flat is None:
            missing = [label for label in table.labels if label not in (values or {})]
            if missing:
                raise BudgetError(f"measurement has no group labelled {missing[0]!r}")
            flat = np.concatenate([values[label] for label in table.labels], dtype=np.float64)
        if flat.shape != (table.total_cells,):
            raise BudgetError(
                f"a measurement of {len(table)} groups must have "
                f"{table.total_cells} cells, got shape {flat.shape}"
            )
        self.strategy_name = strategy_name
        self.allocation = allocation
        self.flat = flat

    @property
    def budget(self):
        """The total privacy budget the measurement satisfies."""
        return self.allocation.budget

    @property
    def values(self) -> Dict[str, np.ndarray]:
        """Noisy values keyed by group label (views of ``flat``)."""
        table = self.allocation.table
        bounds = table.offsets.tolist()
        return {
            label: self.flat[start:end]
            for label, start, end in zip(table.labels, bounds, bounds[1:])
        }

    def group_values(self, label: str) -> np.ndarray:
        """Noisy values of the group with the given label."""
        table = self.allocation.table
        try:
            row = table.position(label)
        except KeyError:
            raise BudgetError(f"measurement has no group labelled {label!r}") from None
        return self.flat[table.offsets[row] : table.offsets[row + 1]]


class Strategy(ABC):
    """Abstract base class of all strategies.

    Parameters
    ----------
    workload:
        The marginal workload the strategy is built for.
    name:
        Short identifier used in allocations, reports and experiments.
    """

    #: Whether the strategy's own recovery already yields mutually consistent
    #: marginals (true when all answers derive from one estimate of the data,
    #: e.g. noisy base counts or a single Fourier coefficient vector).  When
    #: false, the release engine applies the consistency projection of
    #: Section 4.3 on top of :meth:`estimate`.
    inherently_consistent: bool = False

    #: Which measurement kernel the plan executor uses for this strategy:
    #: ``"marginal"`` (batched subset sums over cuboid masks), ``"fourier"``
    #: (Hadamard coefficients) or ``"matrix"`` (dense strategy-matrix
    #: product).  Mask-indexed kinds must implement :meth:`query_masks`.
    measurement_kind: str = "marginal"

    def __init__(self, workload: MarginalWorkload, *, name: str):
        if len(workload) == 0:
            raise WorkloadError("cannot build a strategy for an empty workload")
        self._workload = workload
        self._name = name

    # ------------------------------------------------------------------ #
    @property
    def workload(self) -> MarginalWorkload:
        """The workload this strategy answers."""
        return self._workload

    @property
    def name(self) -> str:
        """Short strategy identifier (``"I"``, ``"Q"``, ``"F"``, ``"C"``, ...)."""
        return self._name

    @property
    def dimension(self) -> int:
        """Number of binary attributes of the underlying domain."""
        return self._workload.dimension

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self._name!r}, workload={self._workload.name!r})"

    # ------------------------------------------------------------------ #
    # interface
    # ------------------------------------------------------------------ #
    def group_table(self, a: Optional[Sequence[float]] = None) -> GroupTable:
        """Group summaries ``(C_r, s_r)`` of the strategy matrix, as columns.

        ``a`` contains optional non-negative per-query weights (one per
        workload query, applied to all cells of that query); ``None`` means
        uniform weights, i.e. the sum of variances over all released cells.
        Mask-indexed strategies also fill the table's ``masks`` column.
        A strategy overrides this or :meth:`group_specs`; this default
        tabulates the latter.
        """
        if type(self).group_specs is Strategy.group_specs:
            raise NotImplementedError(
                f"{type(self).__name__} must override group_table or group_specs"
            )
        return GroupTable.from_specs(self.group_specs(a))

    def group_specs(self, a: Optional[Sequence[float]] = None) -> List[GroupSpec]:
        """The rows of :meth:`group_table` as :class:`GroupSpec` views."""
        return list(self.group_table(a).specs())

    def measure(
        self, x, allocation: NoiseAllocation, rng: RngLike = None
    ) -> Measurement:
        """Answer the strategy queries on the count vector ``x`` with noise.

        The per-group noise level is dictated by ``allocation`` (which must
        have been computed from this strategy's groups).  The plan executor
        measures it (:mod:`repro.plan`): one batched kernel and one
        vectorized draw, the same values as sequential per-group draws from
        ``rng``.  A strategy without the mask-indexed planner contract must
        override this.
        """
        from repro.plan import Executor, Planner  # the plan layer imports this module

        self.check_allocation(allocation)
        plan = Planner(self._workload, self).plan_allocation(allocation)
        if plan.kind == "custom":
            raise NotImplementedError(f"{type(self).__name__} must implement measure()")
        return Executor(self).measure(plan, x, rng)

    @abstractmethod
    def estimate(self, measurement: Measurement) -> List[np.ndarray]:
        """Reconstruct the workload answers from a measurement.

        Returns one vector per workload query, in workload order.
        """

    # ------------------------------------------------------------------ #
    # planner contract
    # ------------------------------------------------------------------ #
    def query_masks(self) -> Tuple[int, ...]:
        """Masks of the strategy's measured objects, in group order.

        For mask-indexed kernels this aligns one-to-one with the groups:
        cuboid masks for marginal-set strategies, the full-domain mask for
        the identity strategy, coefficient masks for the Fourier strategy
        (the ``masks`` column of :meth:`group_table`).  The
        :class:`~repro.plan.planner.Planner` consumes this instead of poking
        at subclass-specific attributes.  Strategies whose rows are not
        mask-indexed (``measurement_kind == "matrix"``) raise.
        """
        masks = self.default_group_table().masks
        if masks is None:
            raise WorkloadError(
                f"strategy {self._name!r} ({type(self).__name__}) does not expose "
                "mask-indexed queries"
            )
        return masks

    # ------------------------------------------------------------------ #
    # shared helpers
    # ------------------------------------------------------------------ #
    def resolve_query_weights(self, a: Optional[Sequence[float]]) -> np.ndarray:
        """Validate per-query weights (defaulting to all-ones)."""
        if a is None:
            return np.ones(len(self._workload), dtype=np.float64)
        weights = np.asarray(a, dtype=np.float64)
        if weights.shape != (len(self._workload),):
            raise WorkloadError(
                f"expected {len(self._workload)} per-query weights, got shape {weights.shape}"
            )
        if np.any(weights < 0):
            raise WorkloadError("per-query weights must be non-negative")
        return weights

    def default_group_table(self) -> GroupTable:
        """Group table for unit query weights, computed once and cached."""
        cached = getattr(self, "_default_group_table", None)
        if cached is None:
            cached = self.group_table()
            self._default_group_table = cached
        return cached

    def check_allocation(self, allocation: NoiseAllocation) -> None:
        """Verify that ``allocation`` matches this strategy's group labels."""
        expected = self.default_group_table().labels
        provided = allocation.table.labels
        if provided is not expected and provided != expected:
            raise BudgetError(
                f"allocation groups do not match strategy {self._name!r}: "
                f"expected {len(expected)} groups starting with {list(expected[:3])}, "
                f"got {len(provided)} starting with {list(provided[:3])}"
            )

    def check_vector(self, x: np.ndarray) -> np.ndarray:
        """Validate that ``x`` is a count vector over the workload's domain."""
        vector = np.asarray(x, dtype=np.float64)
        if vector.ndim != 1 or vector.shape[0] != self._workload.domain_size:
            raise WorkloadError(
                f"count vector must have length {self._workload.domain_size}, "
                f"got shape {vector.shape}"
            )
        return vector

    def check_source(self, source) -> "object":
        """Validate that a :class:`~repro.sources.base.CountSource` covers the
        workload's domain (the source-backed analogue of :meth:`check_vector`)."""
        if source.dimension != self._workload.dimension:
            raise WorkloadError(
                f"count source over {source.dimension} bits does not match the "
                f"workload's {self._workload.dimension}-bit domain"
            )
        return source

    def sensitivity(self, *, pure: bool = True) -> float:
        """Classic (uniform-noise) sensitivity of the strategy matrix.

        ``Delta_1 = sum_r C_r`` for pure differential privacy and
        ``Delta_2 = sqrt(sum_r C_r**2)`` for approximate differential
        privacy, both following from the grouping property.
        """
        constants = self.default_group_table().constants
        return float(constants.sum() if pure else np.sqrt((constants**2).sum()))
