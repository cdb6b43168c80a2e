"""Optimal and uniform noise-budget allocation over strategy groups.

This module implements Step 2 of the paper's framework (Section 3.1).  Given
group summaries ``(C_r, s_r)`` of a strategy satisfying the grouping property,
the optimisation problem (4)–(6)

    minimise   sum_r s_r / eta_r**2
    subject to sum_r C_r * eta_r = epsilon          (pure DP), or
               sum_r C_r**2 * eta_r**2 = epsilon**2 ((epsilon, delta)-DP)

has the closed-form solution derived via Lagrange multipliers:

* pure DP:  ``eta_r ∝ (s_r / C_r)**(1/3)`` with total weighted variance
  ``2 * (sum_r (C_r**2 s_r)**(1/3))**3 / epsilon**2``;
* approximate DP: ``eta_r**2 ∝ sqrt(s_r) / C_r`` with total weighted variance
  ``2 * log(2/delta) * (sum_r C_r sqrt(s_r))**2 / epsilon**2``.

The *uniform* allocation (all rows share the same budget) corresponds to the
classic Laplace/Gaussian mechanism applied to the whole strategy and is
provided for comparison; Corollary 3.3 (and the experiments of Section 5)
show the optimal allocation never does worse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Literal, Sequence, Tuple, Union

import numpy as np

from repro.budget.grouping import GroupSpec, GroupTable
from repro.exceptions import BudgetError
from repro.mechanisms.privacy import PrivacyBudget

AllocationKind = Literal["optimal", "uniform"]

#: What the allocation functions accept as groups.
Groups = Union[GroupTable, Sequence[GroupSpec]]


def _squares(values: np.ndarray) -> np.ndarray:
    """``v**2`` of every entry, by Python's float power.

    ``float.__pow__`` calls the C library's ``pow``, which rounds some
    squares differently from numpy's power and from ``v * v``; the stored
    variances and the privacy check have always used it.
    """
    return np.fromiter(map(pow, values.tolist(), repeat(2)), np.float64, values.size)


def _fold(terms: np.ndarray) -> float:
    """Left-to-right sum from 0.0 — the order of a Python ``for`` loop, not
    numpy's pairwise ``sum``, so totals keep their last bits."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


@dataclass(frozen=True, eq=False, init=False)
class NoiseAllocation:
    """A per-group noise-budget allocation for a grouped strategy.

    Parameters
    ----------
    groups:
        The group summaries the allocation was computed for: a
        :class:`~repro.budget.grouping.GroupTable` or a sequence of
        :class:`~repro.budget.grouping.GroupSpec` rows.
    group_budgets:
        Per-group budgets ``eta_r`` (one per group, aligned with ``groups``).
    budget:
        The total privacy budget the allocation satisfies.
    kind:
        ``"optimal"`` (non-uniform, Lemma 3.2) or ``"uniform"``.

    The allocation keeps everything in one table (``table``, with its
    ``budgets`` column set); ``groups`` and ``group_budgets`` are views of it.
    Allocations are immutable, compare by groups, budgets and kind, and hash
    by labels, budgets and kind.
    """

    table: GroupTable
    budget: PrivacyBudget
    kind: AllocationKind

    def __init__(
        self,
        groups: Groups,
        group_budgets,
        budget: PrivacyBudget,
        kind: AllocationKind,
    ):
        object.__setattr__(self, "table", _table(groups).replace(budgets=group_budgets))
        object.__setattr__(self, "budget", budget)
        object.__setattr__(self, "kind", kind)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NoiseAllocation):
            return NotImplemented
        mine, theirs = self.table, other.table
        return (
            self.kind == other.kind
            and self.budget == other.budget
            and mine.labels == theirs.labels
            and all(
                np.array_equal(getattr(mine, column), getattr(theirs, column))
                for column in ("sizes", "constants", "weights", "budgets")
            )
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.budget, self.table.labels, self.group_budgets))

    # ------------------------------------------------------------------ #
    @property
    def groups(self) -> Tuple[GroupSpec, ...]:
        """The groups as :class:`~repro.budget.grouping.GroupSpec` views."""
        return self.table.specs()

    @property
    def group_budgets(self) -> Tuple[float, ...]:
        """Per-group budgets ``eta_r``, aligned with :attr:`groups`."""
        return tuple(self.table.budgets.tolist())

    @property
    def is_pure(self) -> bool:
        """``True`` for a pure-DP (Laplace) allocation."""
        return self.budget.is_pure

    @property
    def mechanism(self) -> str:
        """Noise distribution implied by the budget: ``"laplace"`` or ``"gaussian"``."""
        return "laplace" if self.is_pure else "gaussian"

    def budget_for(self, label: str) -> float:
        """Budget ``eta_r`` of the group with the given label."""
        try:
            position = self.table.position(label)
        except KeyError:
            raise BudgetError(f"no group labelled {label!r} in this allocation") from None
        return float(self.table.budgets[position])

    def budgets_by_label(self) -> Dict[str, float]:
        """Mapping from group label to its budget."""
        return dict(zip(self.table.labels, self.table.budgets.tolist()))

    # ------------------------------------------------------------------ #
    # variance accounting
    # ------------------------------------------------------------------ #
    def noise_variance_for(self, label: str) -> float:
        """Per-row noise variance injected into the rows of a group."""
        return float(self._row_variances(np.array([self.budget_for(label)]))[0])

    def row_variances(self) -> np.ndarray:
        """Per-row noise variance of every group, aligned with the table:
        ``2 / eta**2`` (Laplace) or ``2 log(2/delta) / eta**2`` (Gaussian),
        ``inf`` for a group without budget."""
        return self._row_variances(self.table.budgets)

    def _row_variances(self, budgets: np.ndarray) -> np.ndarray:
        scale = 2.0 if self.is_pure else 2.0 * math.log(2.0 / self.budget.delta)
        with np.errstate(divide="ignore"):
            variances = scale / _squares(budgets)
        variances[budgets <= 0] = math.inf
        return variances

    def total_weighted_variance(self) -> float:
        """The objective value ``sum_r s_r * Var(row noise in group r)``.

        This is exactly ``a^T Var(y)`` for the recovery matrix the group
        weights were computed from.  Groups of zero weight add nothing; a
        weighted group without budget makes it infinite.
        """
        weights = self.table.weights
        active = weights != 0.0
        variances = self.row_variances()[active]
        if np.isinf(variances).any():
            return math.inf
        return _fold(weights[active] * variances)

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable description (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "budget": self.budget.to_dict(),
            "groups": self.table.spec_dicts(),
            "group_budgets": self.table.budgets.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "NoiseAllocation":
        """Rebuild an allocation from :meth:`to_dict` output.

        Non-finite numbers (which ``json`` parses from ``NaN``/``Infinity``)
        are rejected like any other invalid group or budget.
        """
        kind = str(payload["kind"])
        if kind not in ("optimal", "uniform"):
            raise BudgetError(f"unknown allocation kind {kind!r}")
        groups = payload["groups"]
        table = GroupTable(
            [str(entry["label"]) for entry in groups],  # type: ignore[union-attr, index]
            [int(entry["size"]) for entry in groups],  # type: ignore[union-attr, index]
            [float(entry["constant"]) for entry in groups],  # type: ignore[union-attr, index]
            [float(entry["weight"]) for entry in groups],  # type: ignore[union-attr, index]
        )
        return cls(
            groups=table,
            group_budgets=[float(eta) for eta in payload["group_budgets"]],  # type: ignore[union-attr]
            budget=PrivacyBudget.from_dict(payload["budget"]),  # type: ignore[arg-type]
            kind=kind,  # type: ignore[arg-type]
        )

    def verify_privacy(self, *, tol: float = 1e-9) -> bool:
        """Check that the allocation meets its privacy constraint.

        Pure DP: ``sum_r C_r * eta_r <= epsilon``;
        approximate DP: ``sqrt(sum_r C_r**2 * eta_r**2) <= epsilon``.
        """
        spent = self.table.constants * self.table.budgets
        if self.is_pure:
            total = _fold(spent)
        else:
            total = math.sqrt(_fold(_squares(spent)))
        return total <= self.budget.epsilon * (1.0 + tol)


# --------------------------------------------------------------------------- #
# allocation algorithms
# --------------------------------------------------------------------------- #
def _table(groups: Groups) -> GroupTable:
    return groups if isinstance(groups, GroupTable) else GroupTable.from_specs(groups)


def _validate_groups(groups: Groups) -> GroupTable:
    table = _table(groups)
    if not len(table):
        raise BudgetError("cannot allocate a budget over an empty group collection")
    return table


def optimal_allocation(groups: Groups, budget: PrivacyBudget) -> NoiseAllocation:
    """Closed-form optimal non-uniform allocation (Lemma 3.2 / Corollary 3.3).

    Groups whose recovery weight ``s_r`` is zero do not contribute to the
    output variance and receive a zero budget (their rows need not be
    measured at all); the remaining budget is spread optimally over the rest.
    """
    table = _validate_groups(groups)
    weights = table.weights
    constants = table.constants
    active = weights > 0
    if not np.any(active):
        raise BudgetError("every group has zero recovery weight; nothing to release")

    # An overflow can only leave non-finite budgets, which the allocation
    # rejects; the warning would add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        if budget.is_pure:
            # eta_r proportional to (s_r / C_r)^(1/3), scaled to use the whole budget.
            proportional = np.where(active, (weights / constants) ** (1.0 / 3.0), 0.0)
            normaliser = float(np.dot(constants, proportional))
            etas = budget.epsilon * proportional / normaliser
        else:
            # eta_r**2 proportional to sqrt(s_r) / C_r.
            proportional_sq = np.where(active, np.sqrt(weights) / constants, 0.0)
            normaliser = float(np.dot(constants**2, proportional_sq))
            etas = np.sqrt(budget.epsilon**2 * proportional_sq / normaliser)
    return NoiseAllocation(groups=table, group_budgets=etas, budget=budget, kind="optimal")


def uniform_allocation(groups: Groups, budget: PrivacyBudget) -> NoiseAllocation:
    """Uniform allocation: every strategy row receives the same budget.

    For pure DP the common row budget is ``epsilon / Delta_1`` with
    ``Delta_1 = sum_r C_r`` (each column receives one entry of magnitude
    ``C_r`` from every group); for approximate DP it is
    ``epsilon / Delta_2`` with ``Delta_2 = sqrt(sum_r C_r**2)``.  This
    reproduces the classic Laplace/Gaussian mechanism over the strategy.
    """
    table = _validate_groups(groups)
    constants = table.constants
    if budget.is_pure:
        common = budget.epsilon / float(constants.sum())
    else:
        common = budget.epsilon / float(np.sqrt((constants**2).sum()))
    return NoiseAllocation(
        groups=table,
        group_budgets=np.full(len(table), common),
        budget=budget,
        kind="uniform",
    )


def allocation_for(
    groups: Groups,
    budget: PrivacyBudget,
    *,
    non_uniform: bool = True,
) -> NoiseAllocation:
    """Convenience dispatcher between :func:`optimal_allocation` and
    :func:`uniform_allocation`."""
    if non_uniform:
        return optimal_allocation(groups, budget)
    return uniform_allocation(groups, budget)


def predicted_total_variance(
    groups: Groups, budget: PrivacyBudget, *, non_uniform: bool = True
) -> float:
    """Analytic total weighted output variance for the chosen allocation.

    For the optimal allocation this evaluates the closed forms
    ``2 (sum_r (C_r**2 s_r)**(1/3))**3 / eps**2`` (pure) and
    ``2 log(2/delta) (sum_r C_r sqrt(s_r))**2 / eps**2`` (approximate); for
    the uniform allocation it evaluates the corresponding direct formulas.
    Matches :meth:`NoiseAllocation.total_weighted_variance` exactly and is
    useful for planning without constructing the allocation.
    """
    table = _validate_groups(groups)
    weights = table.weights
    constants = table.constants
    epsilon = budget.epsilon
    if non_uniform:
        if budget.is_pure:
            return float(2.0 * (np.sum((constants**2 * weights) ** (1.0 / 3.0))) ** 3 / epsilon**2)
        return float(
            2.0
            * math.log(2.0 / budget.delta)
            * (np.sum(constants * np.sqrt(weights))) ** 2
            / epsilon**2
        )
    if budget.is_pure:
        return float(2.0 * (constants.sum()) ** 2 * weights.sum() / epsilon**2)
    return float(
        2.0 * math.log(2.0 / budget.delta) * (constants**2).sum() * weights.sum() / epsilon**2
    )
