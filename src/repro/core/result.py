"""The result of a private marginal release."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from repro.budget.allocation import NoiseAllocation
from repro.domain.contingency import ContingencyTable
from repro.domain.schema import AttributeRef, Schema
from repro.exceptions import WorkloadError
from repro.mechanisms.privacy import PrivacyBudget
from repro.queries.workload import MarginalWorkload

#: Version stamp of the :meth:`ReleaseResult.to_dict` payload layout.
RELEASE_FORMAT_VERSION = 1


@dataclass
class ReleaseResult:
    """Differentially private answers to a marginal workload.

    Attributes
    ----------
    workload:
        The workload that was answered.
    marginals:
        One noisy marginal vector per query, in workload order.
    strategy_name:
        Name of the strategy that produced the answers.
    allocation:
        The noise allocation (including the privacy budget and whether the
        allocation was uniform or optimal).
    consistent:
        Whether a consistency projection was applied (or the strategy is
        inherently consistent).
    expected_total_variance:
        The analytic total output variance predicted by the allocation
        (before any consistency step, which can only help on average).
    elapsed_seconds:
        Wall-clock time of the release, broken down by phase.
    """

    workload: MarginalWorkload
    marginals: List[np.ndarray]
    strategy_name: str
    allocation: NoiseAllocation
    consistent: bool
    expected_total_variance: float
    elapsed_seconds: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        workload = self.workload
        if len(self.marginals) != len(workload):
            raise WorkloadError(f"expected {len(workload)} marginals, got {len(self.marginals)}")
        # One comparison of every shape; the scan names the first bad query.
        shapes = list(map(np.shape, self.marginals))
        if shapes != [(size,) for size in workload.sizes.tolist()]:
            for query, shape in zip(workload.queries, shapes):
                if shape != (query.size,):
                    raise WorkloadError(
                        f"marginal for query {query.mask:#x} has shape "
                        f"{shape}, expected ({query.size},)"
                    )

    # ------------------------------------------------------------------ #
    @property
    def budget(self) -> PrivacyBudget:
        """Total privacy budget spent by the release."""
        return self.allocation.budget

    @property
    def budgeting(self) -> str:
        """``"optimal"`` (non-uniform) or ``"uniform"`` noise allocation."""
        return self.allocation.kind

    @property
    def total_time(self) -> float:
        """Total wall-clock seconds across all recorded phases."""
        return float(sum(self.elapsed_seconds.values()))

    def __repr__(self) -> str:
        return (
            f"ReleaseResult(strategy={self.strategy_name!r}, budgeting={self.budgeting!r}, "
            f"workload={self.workload.name!r}, epsilon={self.budget.epsilon:g}, "
            f"consistent={self.consistent})"
        )

    # ------------------------------------------------------------------ #
    # lookups
    # ------------------------------------------------------------------ #
    def marginal_for(self, attributes: Union[int, Iterable[AttributeRef]]) -> np.ndarray:
        """The released marginal over the given attributes (or raw mask)."""
        if isinstance(attributes, (int, np.integer)):
            mask = int(attributes)
        else:
            mask = self.workload.schema.mask_of(attributes)
        for query, marginal in zip(self.workload.queries, self.marginals):
            if query.mask == mask:
                return marginal
        raise WorkloadError(f"no query with mask {mask:#x} in the released workload")

    def as_dict(self) -> Dict[int, np.ndarray]:
        """Mapping from query mask to released marginal."""
        return {query.mask: marginal for query, marginal in zip(self.workload.queries, self.marginals)}

    # ------------------------------------------------------------------ #
    # serialization
    # ------------------------------------------------------------------ #
    def to_dict(self, *, include_marginals: bool = True) -> Dict[str, object]:
        """JSON-serialisable description of the release.

        With ``include_marginals=False`` the (potentially large) marginal
        vectors are omitted; callers then persist them out of band (e.g. the
        :class:`~repro.serving.store.ReleaseStore` writes them to one ``.npy``
        file) and pass them back to :meth:`from_dict` explicitly.
        """
        payload: Dict[str, object] = {
            "format_version": RELEASE_FORMAT_VERSION,
            "schema": self.workload.schema.to_dict(),
            "workload": self.workload.to_dict(),
            "strategy_name": self.strategy_name,
            "allocation": self.allocation.to_dict(),
            "consistent": self.consistent,
            "expected_total_variance": self.expected_total_variance,
            "elapsed_seconds": dict(self.elapsed_seconds),
        }
        if include_marginals:
            payload["marginals"] = [
                np.asarray(marginal, dtype=np.float64).tolist() for marginal in self.marginals
            ]
        return payload

    @classmethod
    def from_dict(
        cls,
        payload: Dict[str, object],
        *,
        marginals: Optional[List[np.ndarray]] = None,
    ) -> "ReleaseResult":
        """Rebuild a release from :meth:`to_dict` output.

        ``marginals`` overrides (or supplies, for payloads written with
        ``include_marginals=False``) the released vectors, in workload order.
        """
        version = int(payload.get("format_version", RELEASE_FORMAT_VERSION))  # type: ignore[arg-type]
        if version > RELEASE_FORMAT_VERSION:
            raise WorkloadError(
                f"release payload has format version {version}, this build reads "
                f"up to {RELEASE_FORMAT_VERSION}"
            )
        schema = Schema.from_dict(payload["schema"])  # type: ignore[arg-type]
        workload = MarginalWorkload.from_dict(schema, payload["workload"])  # type: ignore[arg-type]
        if marginals is None:
            raw = payload.get("marginals")
            if raw is None:
                raise WorkloadError(
                    "payload was written without marginals and none were provided"
                )
            marginals = [np.asarray(values, dtype=np.float64) for values in raw]  # type: ignore[union-attr]
        else:
            marginals = [np.asarray(values, dtype=np.float64) for values in marginals]
        return cls(
            workload=workload,
            marginals=marginals,
            strategy_name=str(payload["strategy_name"]),
            allocation=NoiseAllocation.from_dict(payload["allocation"]),  # type: ignore[arg-type]
            consistent=bool(payload["consistent"]),
            expected_total_variance=float(payload["expected_total_variance"]),  # type: ignore[arg-type]
            elapsed_seconds={
                str(phase): float(seconds)
                for phase, seconds in dict(payload.get("elapsed_seconds", {})).items()  # type: ignore[arg-type]
            },
        )

    # ------------------------------------------------------------------ #
    # error metrics (convenience wrappers over repro.analysis.metrics)
    # ------------------------------------------------------------------ #
    def absolute_error(self, truth: Union[ContingencyTable, np.ndarray]) -> float:
        """Average absolute error per released cell against the exact data."""
        from repro.analysis.metrics import average_absolute_error

        return average_absolute_error(self.workload, truth, self.marginals)

    def relative_error(self, truth: Union[ContingencyTable, np.ndarray]) -> float:
        """Average relative error per released cell (the paper's plot metric)."""
        from repro.analysis.metrics import average_relative_error

        return average_relative_error(self.workload, truth, self.marginals)
