"""The grouping property (Definition 3.1) and group summaries.

A strategy matrix ``S`` satisfies the grouping property when its rows can be
partitioned into groups such that

* *row-wise disjointness*: rows in the same group have disjoint supports, and
* *bounded column norm*: within a group, every column's largest entry
  magnitude equals the same constant ``C_r``.

Together these mean every column of ``S`` receives exactly one entry of
magnitude ``C_r`` from each group, which collapses all privacy constraints
into a single one and yields a closed-form optimal budget allocation
(:mod:`repro.budget.allocation`).

Strategies in :mod:`repro.strategies` describe their groups analytically as
a :class:`GroupTable` (per group: label, size, ``C_r`` and recovery weight
``s_r``, as parallel arrays); :class:`GroupSpec` is one row of it.  The
helpers here also derive group structures from explicit dense matrices, which
is what the test suite uses to validate the analytic descriptions.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import BudgetError, GroupingError


def check_group_columns(
    labels: Sequence[str], sizes: np.ndarray, constants: np.ndarray, weights: np.ndarray
) -> None:
    """Validate group summaries column-wise, naming the first bad group.

    ``NaN`` fails every comparison, so each test is true only for a valid
    value; infinities are refused too, as they make the budgets ``NaN``.
    """
    failures = (
        (sizes <= 0, "must contain at least one row"),
        (~(constants > 0), "must have a positive column constant, got {c}"),
        (weights < 0, "has a negative recovery weight {w}"),
        (
            ~(np.isfinite(constants) & np.isfinite(weights)),
            "has a non-finite column constant or recovery weight ({c}, {w})",
        ),
    )
    for flags, message in failures:
        hits = np.flatnonzero(flags)
        if hits.size:
            row = hits[0]
            detail = message.format(c=constants[row].item(), w=weights[row].item())
            raise GroupingError(f"group {labels[row]!r} {detail}")


def check_group_budgets(budgets: np.ndarray, groups: int) -> None:
    """Validate per-group budgets ``eta_r`` (one per group, finite, >= 0)."""
    if budgets.shape != (groups,):
        raise BudgetError(f"got {budgets.size} budgets for {groups} groups")
    if np.any(budgets < 0):
        raise BudgetError("group budgets must be non-negative")
    if not np.isfinite(budgets).all():
        raise BudgetError("group budgets must be finite")


@dataclass(frozen=True)
class GroupSpec:
    """Summary of one group of strategy rows (a row of a :class:`GroupTable`).

    Parameters
    ----------
    label:
        Human-readable identifier (e.g. the marginal or Fourier mask).
    size:
        Number of strategy rows in the group.
    constant:
        The group constant ``C_r`` of Definition 3.1 (magnitude of the
        non-zero entries contributed to each column).
    weight:
        The recovery weight ``s_r = sum_{i in group} sum_j a_j R_ji**2``:
        how strongly the noise of this group's rows shows up in the weighted
        output variance.  (The paper's ``b_i`` equals ``2 * w_i`` for the
        Laplace mechanism; the factor 2 is applied by the variance formulas,
        not stored here.)
    """

    label: str
    size: int
    constant: float
    weight: float

    def __post_init__(self) -> None:
        check_group_columns(
            (self.label,),
            np.array([self.size]),
            np.array([self.constant], dtype=np.float64),
            np.array([self.weight], dtype=np.float64),
        )

    def to_dict(self) -> dict:
        """JSON-serialisable description (inverse of :meth:`from_dict`)."""
        return {
            "label": self.label,
            "size": self.size,
            "constant": self.constant,
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GroupSpec":
        """Rebuild a group spec from :meth:`to_dict` output."""
        return cls(
            label=str(payload["label"]),
            size=int(payload["size"]),
            constant=float(payload["constant"]),
            weight=float(payload["weight"]),
        )


def _column(values, dtype) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.setflags(write=False)
    return array


class GroupTable:
    """The groups of a strategy as parallel columns, one row per group.

    This is the one store of a release's groups, from the strategy through
    the :class:`~repro.budget.allocation.NoiseAllocation` to the
    :class:`~repro.plan.plan.ExecutionPlan`.  Every table has a label, a
    size (rows), the constant ``C_r`` and the recovery weight ``s_r`` per
    group; the planner adds the cuboid or coefficient ``masks``, the
    allocation the ``budgets`` ``eta_r`` and the plan the sampler
    ``noise_scales`` (via :meth:`replace`).  Group ``r``'s cells sit at
    ``offsets[r]:offsets[r + 1]`` of a release's flat measurement vector.
    :class:`GroupSpec` rows are views built on demand (:meth:`specs`).
    Columns are read-only.
    """

    def __init__(
        self,
        labels: Sequence[str],
        sizes,
        constants,
        weights,
        *,
        masks: Optional[Sequence[int]] = None,
    ):
        self.labels: Tuple[str, ...] = tuple(labels)
        self.sizes = _column(sizes, np.int64)
        self.constants = _column(constants, np.float64)
        self.weights = _column(weights, np.float64)
        if not self.sizes.shape == self.constants.shape == self.weights.shape == (
            len(self.labels),
        ):
            raise GroupingError("every group column needs one entry per label")
        check_group_columns(self.labels, self.sizes, self.constants, self.weights)
        self.masks: Optional[Tuple[int, ...]] = None if masks is None else tuple(masks)
        self.budgets: Optional[np.ndarray] = None
        self.noise_scales: Optional[np.ndarray] = None
        self._offsets: Optional[np.ndarray] = None
        self._positions: Optional[Dict[str, int]] = None
        self._specs: Optional[Tuple[GroupSpec, ...]] = None

    @classmethod
    def from_specs(cls, specs: Sequence[GroupSpec]) -> "GroupTable":
        """The table of a sequence of :class:`GroupSpec` rows."""
        rows = [(spec.label, spec.size, spec.constant, spec.weight) for spec in specs]
        return cls(*zip(*rows)) if rows else cls((), (), (), ())

    def replace(self, **columns) -> "GroupTable":
        """A copy with the optional columns ``masks``, ``budgets`` or
        ``noise_scales`` set; every other column is shared, not copied."""
        table = copy.copy(self)
        if "masks" in columns:
            masks = columns.pop("masks")
            table.masks = None if masks is None else tuple(masks)
        if "budgets" in columns:
            table.budgets = _column(columns.pop("budgets"), np.float64)
            check_group_budgets(table.budgets, len(self))
        if "noise_scales" in columns:
            table.noise_scales = _column(columns.pop("noise_scales"), np.float64)
        if columns:
            raise TypeError(f"GroupTable has no optional columns {sorted(columns)}")
        return table

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.labels)

    def __repr__(self) -> str:
        return f"GroupTable(labels={self.labels!r})"

    @property
    def offsets(self) -> np.ndarray:
        """Cell offsets: group ``r`` spans ``offsets[r]:offsets[r + 1]``."""
        if self._offsets is None:
            self._offsets = _column(np.concatenate(([0], np.cumsum(self.sizes))), np.int64)
        return self._offsets

    @property
    def total_cells(self) -> int:
        """Cells of all groups together (the flat measurement length)."""
        return int(self.offsets[-1])

    def position(self, label: str) -> int:
        """Row of the group with ``label`` (``KeyError`` when absent)."""
        if self._positions is None:
            self._positions = {label: row for row, label in enumerate(self.labels)}
        return self._positions[label]

    def mask_column(self) -> Tuple[Optional[int], ...]:
        """``masks``, or ``None`` per group for a table without masks."""
        return self.masks if self.masks is not None else (None,) * len(self)

    def _rows(self):
        return zip(
            self.labels, self.sizes.tolist(), self.constants.tolist(), self.weights.tolist()
        )

    def specs(self) -> Tuple[GroupSpec, ...]:
        """The rows as :class:`GroupSpec` views (built once, on demand)."""
        if self._specs is None:
            self._specs = tuple(GroupSpec(*row) for row in self._rows())
        return self._specs

    def spec_dicts(self) -> List[Dict[str, object]]:
        """:meth:`GroupSpec.to_dict` of every row, without building the rows."""
        return [
            {"label": label, "size": size, "constant": constant, "weight": weight}
            for label, size, constant, weight in self._rows()
        ]


# --------------------------------------------------------------------------- #
# grouping of explicit matrices
# --------------------------------------------------------------------------- #
def _rows_compatible(matrix: np.ndarray, group_rows: Sequence[int], row: int, tol: float) -> bool:
    """Can ``row`` join the group without violating Definition 3.1?"""
    candidate = matrix[row]
    candidate_support = np.abs(candidate) > tol
    magnitudes = np.abs(candidate[candidate_support])
    if magnitudes.size == 0:
        return False
    if np.ptp(magnitudes) > tol:
        return False
    group_magnitude = None
    for other in group_rows:
        other_row = matrix[other]
        other_support = np.abs(other_row) > tol
        if np.any(candidate_support & other_support):
            return False
        group_magnitude = np.abs(other_row[other_support]).max()
    if group_magnitude is not None and abs(group_magnitude - magnitudes.max()) > tol:
        return False
    return True


def greedy_grouping(matrix: np.ndarray, *, tol: float = 1e-12) -> List[List[int]]:
    """Greedy row grouping of a dense strategy matrix.

    Each row is added to the first existing group it is compatible with
    (disjoint support, matching entry magnitude); otherwise a new group is
    started.  The result is a partition of the row indices.  As the paper
    notes, the greedy grouping need not be minimum, but any valid grouping
    suffices for the budgeting machinery.
    """
    dense = np.asarray(matrix, dtype=np.float64)
    if dense.ndim != 2:
        raise GroupingError(f"expected a 2-D strategy matrix, got shape {dense.shape}")
    groups: List[List[int]] = []
    for row in range(dense.shape[0]):
        if not np.any(np.abs(dense[row]) > tol):
            raise GroupingError(f"strategy row {row} is identically zero and cannot be grouped")
        placed = False
        for group_rows in groups:
            if _rows_compatible(dense, group_rows, row, tol):
                group_rows.append(row)
                placed = True
                break
        if not placed:
            groups.append([row])
    return groups


def satisfies_grouping_property(
    matrix: np.ndarray,
    groups: Sequence[Sequence[int]],
    *,
    tol: float = 1e-9,
    require_full_cover: bool = True,
) -> bool:
    """Check Definition 3.1 for an explicit grouping.

    With ``require_full_cover=True`` (the strict definition) every column must
    receive exactly one entry of magnitude ``C_r`` from each group.  With
    ``False`` only row-wise disjointness and per-group uniform magnitude are
    checked, which is sufficient for the allocation to remain feasible.
    """
    dense = np.asarray(matrix, dtype=np.float64)
    seen = np.zeros(dense.shape[0], dtype=bool)
    for group_rows in groups:
        rows = list(group_rows)
        if not rows:
            return False
        if seen[rows].any():
            return False
        seen[rows] = True
        block = dense[rows]
        support = np.abs(block) > tol
        # Disjoint supports: each column touched by at most one row of the group.
        if np.any(support.sum(axis=0) > 1):
            return False
        magnitudes = np.abs(block[support])
        if magnitudes.size == 0:
            return False
        constant = magnitudes.max()
        if np.ptp(magnitudes) > tol * max(1.0, constant):
            return False
        if require_full_cover:
            column_max = np.abs(block).max(axis=0)
            if np.any(np.abs(column_max - constant) > tol * max(1.0, constant)):
                return False
    return bool(seen.all())


def group_constant(matrix: np.ndarray, rows: Sequence[int], *, tol: float = 1e-12) -> float:
    """The constant ``C_r`` of a group of rows of an explicit matrix."""
    block = np.abs(np.asarray(matrix, dtype=np.float64)[list(rows)])
    magnitudes = block[block > tol]
    if magnitudes.size == 0:
        raise GroupingError("group has no non-zero entries")
    return float(magnitudes.max())


def row_recovery_weights(recovery: np.ndarray, a: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-strategy-row weights ``w_i = sum_j a_j R_ji**2``.

    These are the (halved) ``b_i`` of the paper's objective (1): the total
    weighted output variance is ``sum_i Var(nu_i) * w_i``.
    """
    dense = np.asarray(recovery, dtype=np.float64)
    if dense.ndim != 2:
        raise GroupingError(f"expected a 2-D recovery matrix, got shape {dense.shape}")
    if a is None:
        weights = np.ones(dense.shape[0], dtype=np.float64)
    else:
        weights = np.asarray(a, dtype=np.float64)
        if weights.shape != (dense.shape[0],):
            raise GroupingError(
                f"a must have one weight per query row ({dense.shape[0]}), got {weights.shape}"
            )
        if np.any(weights < 0):
            raise GroupingError("the variance weights a must be non-negative")
    return (weights[:, None] * dense**2).sum(axis=0)


def group_specs_from_matrices(
    strategy: np.ndarray,
    recovery: np.ndarray,
    groups: Sequence[Sequence[int]],
    *,
    a: Optional[np.ndarray] = None,
    labels: Optional[Sequence[str]] = None,
    tol: float = 1e-12,
) -> List[GroupSpec]:
    """Build :class:`GroupSpec` summaries from explicit ``S``, ``R`` and a grouping."""
    strategy = np.asarray(strategy, dtype=np.float64)
    recovery = np.asarray(recovery, dtype=np.float64)
    if recovery.shape[1] != strategy.shape[0]:
        raise GroupingError(
            "recovery must have one column per strategy row: "
            f"R is {recovery.shape}, S is {strategy.shape}"
        )
    weights = row_recovery_weights(recovery, a)
    specs = []
    for position, rows in enumerate(groups):
        label = labels[position] if labels is not None else f"group-{position}"
        specs.append(
            GroupSpec(
                label=label,
                size=len(rows),
                constant=group_constant(strategy, rows, tol=tol),
                weight=float(weights[list(rows)].sum()),
            )
        )
    return specs
